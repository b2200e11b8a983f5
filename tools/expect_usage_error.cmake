# Runs CLI with ARGS ('|'-separated) and passes iff the command exits
# with status 2 and its output names EXPECT (the offending argument).
#
#   cmake -DCLI=<propeller-cli> -DARGS='--jobs|-1|run|mysql' \
#         -DEXPECT="'-1'" -P expect_usage_error.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CLI} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "exit status ${rc}, expected 2:\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "output does not name ${EXPECT}:\n${out}${err}")
endif()
