# Exit-code check for a bench driver's TT_* knobs (README exit-code
# table): every row must exit with status 2, not a signal, and leave a
# message on stderr. A row is space-separated NAME=VALUE settings,
# applied over a small em3d machine.
#
#   cmake -DDRIVER=path/to/fig3_stache_vs_dirnnb \
#         -P bench/user_errors.cmake

set(cases
    "TT_SCALE=0"
    "TT_SCALE=-4"
    "TT_SCALE=abc"
    "TT_SCALE=4x"
    "TT_NODES=0"
    "TT_NODES=")

set(failed 0)
foreach(row IN LISTS cases)
    separate_arguments(vars UNIX_COMMAND "${row}")
    execute_process(COMMAND ${CMAKE_COMMAND} -E env TT_NODES=8
                            TT_APPS=em3d ${vars} ${DRIVER}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    # rc is the exit status, or a description when a signal killed
    # the process; only a plain 2 passes.
    if(NOT rc STREQUAL "2" OR err STREQUAL "")
        message(SEND_ERROR "${DRIVER} with ${row}: want exit 2 with a "
                           "message, got '${rc}', stderr: ${err}")
        set(failed 1)
    else()
        string(REGEX REPLACE "\n.*" "" first "${err}")
        message(STATUS "${row} -> 2: ${first}")
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "bench driver user-error exit codes are wrong")
endif()
