# Table-driven exit-code check for ttsim user errors (README exit-code
# table): every row must exit with status 2, not a signal, and leave a
# message on stderr. A row is one or more space-separated arguments.
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
    "--restore='${MISSING}'"
    "--threads=4"
    "--bench-json=x.json"
    "--trace-sample=100"
    "--nodes=0"
    "--nodes=-1"
    "--block=33"
    "--block=0"
    "--block=4"
    "--cache-kb=0"
    "--nodes=1025"
    "--faults=drop=0.1,seed=1 --rto=-1"
    "--faults=drop=0.1,seed=1 --retries=-3"
    "--faults=crash@100:99,seed=1"
    "--faults=cut=0-99,seed=1"
    "--faults=crash@100:99,seed=1 --campaign=1"
    "--faults=cut=0-99,seed=1 --campaign=1"
    "--net-latency=-1"
    "--remote=200"
    "--scale=0"
    "--perturb=1 --jitter=-1"
    "--seed=abc"
    "--trace-ring=0"
    "--faults=crash@30000:abc,seed=5"
    "--faults=drop=0.01xyz,seed=1"
    "--faults=drop=0.01,seed=abc"
    "--faults=cut=a-b,seed=1")

set(failed 0)
foreach(arg IN LISTS cases)
    separate_arguments(args UNIX_COMMAND "${arg}")
    execute_process(COMMAND ${TTSIM} ${small} ${args}
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
