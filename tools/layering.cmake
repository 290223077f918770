# One observation seam (DESIGN.md §8): the producers of simulator
# events notify only their FlightRecorder, which feeds the coherence
# sanitizer. This check fails if any file in a producer or lower layer
# includes a check/ header, or declares a `_checker` member or a
# `setChecker` method of its own.
#
#   cmake -DSRC=path/to/src -P tools/layering.cmake

set(layers sim mem net core dir typhoon stache custom apps)

set(failed 0)
foreach(layer IN LISTS layers)
    file(GLOB_RECURSE files "${SRC}/${layer}/*.hh" "${SRC}/${layer}/*.cc")
    if(NOT files)
        message(SEND_ERROR "no sources under ${SRC}/${layer}")
        set(failed 1)
    endif()
    foreach(f IN LISTS files)
        file(STRINGS "${f}" hits
             REGEX "#[ \t]*include[ \t]*[<\"]check/|_checker|setChecker")
        file(RELATIVE_PATH rel "${SRC}" "${f}")
        foreach(line IN LISTS hits)
            string(STRIP "${line}" line)
            message(SEND_ERROR "src/${rel}: ${line}")
            set(failed 1)
        endforeach()
    endforeach()
endforeach()
if(failed)
    message(FATAL_ERROR "a producer names the checker; notify the "
                        "FlightRecorder instead (src/obs/recorder.hh)")
endif()
message(STATUS "no producer names the checker")
