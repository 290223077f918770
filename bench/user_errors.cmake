# Exit-code check for a bench driver's TT_* knobs (README exit-code
# table): every row must exit with status 2, not a signal, and leave a
# message on stderr, before the first case runs. A row is
# space-separated NAME=VALUE settings, applied over a small em3d
# machine.
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

# bench_simcore's own knobs: its telemetry bound (a number of at least
# 1) and the memory sweep's node counts.
get_filename_component(driver_name "${DRIVER}" NAME_WE)
if(driver_name STREQUAL "bench_simcore")
    list(APPEND cases
        "TT_TELEMETRY_BOUND=abc"
        "TT_TELEMETRY_BOUND=1.5xyz"
        "TT_TELEMETRY_BOUND="
        "TT_TELEMETRY_BOUND=0.5"
        "TT_FOOTPRINT_NODES=abc"
        "TT_FOOTPRINT_NODES=0")
endif()

set(failed 0)
foreach(row IN LISTS cases)
    separate_arguments(vars UNIX_COMMAND "${row}")
    execute_process(COMMAND ${CMAKE_COMMAND} -E env TT_NODES=8
                            TT_APPS=em3d ${vars} ${DRIVER}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    # rc is the exit status, or a description when a signal killed
    # the process; only a plain 2 passes. Every case's line names its
    # app, so "em3d" on stdout means a knob was read after a case ran.
    if(NOT rc STREQUAL "2" OR err STREQUAL "" OR out MATCHES "em3d")
        message(SEND_ERROR "${DRIVER} with ${row}: want exit 2 with a "
                           "message before the first case, got "
                           "'${rc}', stderr: ${err}stdout: ${out}")
        set(failed 1)
    else()
        string(REGEX REPLACE "\n.*" "" first "${err}")
        message(STATUS "${row} -> 2: ${first}")
    endif()
endforeach()
if(failed)
    message(FATAL_ERROR "bench driver user-error exit codes are wrong")
endif()
