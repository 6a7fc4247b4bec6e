# ctest helper: runs SIM with the space-separated ARGS and passes only when
# the command rejects them as a usage error — exit status 2, EXPECT on
# stderr (the message naming the bad flag), and the usage text after it.
#
#   cmake -DSIM=<tcppr_sim> "-DARGS=--alpha 1.5" "-DEXPECT=--alpha must be"
#         -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${SIM}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${ARGS}: expected exit status 2, got '${rc}'\n${err}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${ARGS}: stderr lacks '${EXPECT}':\n${err}")
endif()
string(FIND "${err}" "--topology dumbbell" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${ARGS}: no usage text on stderr:\n${err}")
endif()
