# Runs COMMAND (a ;-list) and fails unless it exits with status EXPECTED.
#   cmake -DCOMMAND="bin;arg;..." -DEXPECTED=2 -P expect_exit.cmake
execute_process(COMMAND ${COMMAND} RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE stderr)
if(NOT status STREQUAL EXPECTED)
  message(FATAL_ERROR "'${COMMAND}' exited with '${status}', expected ${EXPECTED}: ${stderr}")
endif()
message(STATUS "exit ${status}: ${stderr}")
