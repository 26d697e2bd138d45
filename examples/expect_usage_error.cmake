# Runs PROGRAM with the space-separated ARGS and fails unless it exits with
# status EXPECTED and prints a usage line on stderr.
#
#   cmake -DPROGRAM=<exe> "-DARGS=abc 10" -DEXPECTED=2 -P expect_usage_error.cmake
separate_arguments(arg_list UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${arg_list}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL "${EXPECTED}")
  message(FATAL_ERROR "'${PROGRAM} ${ARGS}' exited with '${status}', "
                      "expected ${EXPECTED}; stderr: ${stderr}")
endif()
if(NOT stderr MATCHES "usage:")
  message(FATAL_ERROR "'${PROGRAM} ${ARGS}' printed no usage line: ${stderr}")
endif()
