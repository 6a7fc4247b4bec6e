# ctest helper: runs SIM with the space-separated ARGS and passes only when
# the run succeeds (exit status 0) and prints EXPECT on stderr.
#
#   cmake -DSIM=<tcppr_sim> "-DARGS=--par 2 --ts-out x.csv"
#         "-DEXPECT=--par drops" -P expect_notice.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${SIM}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "${ARGS}: expected exit status 0, got '${rc}'\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${ARGS}: stderr lacks '${EXPECT}':\n${err}")
endif()
