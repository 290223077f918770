# Table-driven exit-code check for ttsim user errors (README exit-code
# table): every row must exit with status 2, not a signal, and leave a
# message on stderr.
#
#   cmake -DTTSIM=path/to/ttsim -DMISSING=path/that/does/not/exist \
#         -P tools/user_errors.cmake

set(small --dataset=tiny --nodes=8)
set(cases
    "--faults=drop=abc,seed=1"
    "--faults=crash@x:1,seed=1"
    "--dataset=huge"
    "--app=nope"
    "--system=nope"
    "--restore=${MISSING}"
    "--threads=4"
    "--trace-sample=100")

set(failed 0)
foreach(arg IN LISTS cases)
    execute_process(COMMAND ${TTSIM} ${small} ${arg}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    # rc is the exit status, or a description when a signal killed
    # the process; only a plain 2 passes.
    if(NOT rc STREQUAL "2" OR err STREQUAL "")
        message(SEND_ERROR "ttsim ${arg}: want exit 2 with a message, "
                           "got '${rc}', stderr: ${err}")
        set(failed 1)
    else()
        string(REGEX REPLACE "\n.*" "" first "${err}")
        message(STATUS "ttsim ${arg} -> 2: ${first}")
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "ttsim user-error exit codes are wrong")
endif()
