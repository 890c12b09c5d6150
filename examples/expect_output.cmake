# Runs BIN and fails unless it exits 0 and its stdout contains EXPECT.
#
#   cmake -DBIN=<binary> -DEXPECT=<text> -P expect_output.cmake
execute_process(COMMAND ${BIN} RESULT_VARIABLE result OUTPUT_VARIABLE output)
message("${output}")
if(NOT result EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${result}")
endif()
string(FIND "${output}" "${EXPECT}" found)
if(found EQUAL -1)
  message(FATAL_ERROR "${BIN}: output lacks \"${EXPECT}\"")
endif()
