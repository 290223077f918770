# Table-driven exit-code contract for ttsim (README exit-code table):
# each row is the status a tiny run on 8 nodes must exit with, then
# its arguments. The process must end with that status, never a
# signal, and a row with a non-zero status must leave a message on
# stderr. User errors (status 2) have their own table in
# user_errors.cmake.
#
#   cmake -DTTSIM=path/to/ttsim -P tools/exit_codes.cmake

set(small --dataset=tiny --nodes=8)
set(cases
    # A plain run completes clean.
    "0"
    # An injected directory bug: the sanitizer reports a violation.
    "3 --system=dirnnb --fault=skip-invalidate --check"
    # Every message lost: the watchdog trips, single run and campaign.
    "4 --faults=drop=1.0,seed=1"
    "4 --faults=drop=1.0,seed=1 --campaign=1 --systems=stache"
    # An injected Stache bug trips an internal assertion (a panic).
    "4 --system=stache --app=mp3d --fault=skip-downgrade --check"
    # A second crash before the first one is recovered.
    "5 --faults=crash@1:1,crash@2:2,seed=1"
    # The only node crashes: no surviving node remains to recover it.
    "5 --nodes=1 --faults=crash@100:0,seed=1"
    # A data set too small for the machine is a user error, in a
    # campaign as in a single run.
    "2 --dataset=small --scale=4000 --nodes=9 --campaign=1 --systems=stache --faults=drop=0.01,seed=1")

set(failed 0)
foreach(row IN LISTS cases)
    separate_arguments(args UNIX_COMMAND "${row}")
    list(POP_FRONT args want)
    list(JOIN args " " shown)
    execute_process(COMMAND ${TTSIM} ${small} ${args}
                    RESULT_VARIABLE rc
                    OUTPUT_QUIET
                    ERROR_VARIABLE err)
    # rc is the exit status, or a description when a signal killed
    # the process; only the row's own status passes.
    if(NOT rc STREQUAL want OR (NOT want STREQUAL "0" AND err STREQUAL ""))
        message(SEND_ERROR "ttsim ${shown}: want exit ${want}, got "
                           "'${rc}', stderr: ${err}")
        set(failed 1)
    else()
        message(STATUS "ttsim ${shown} -> ${rc}")
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "ttsim exit codes are wrong")
endif()
