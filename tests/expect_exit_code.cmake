# Run one command and require a given exit status plus a stderr line that
# starts with a given prefix. Used by CTest for command-line front ends whose
# contract is "bad input exits 2 with a message", which an abort would also
# satisfy under a plain WILL_FAIL test.
#
#   cmake -DEXPECT_RC=2 -DEXPECT_STDERR=prefix -P expect_exit_code.cmake -- CMD ARGS...
set(cmd)
set(collect OFF)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(collect)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(collect ON)
  endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "expected exit ${EXPECT_RC}, got '${rc}'\n${err}")
endif()
string(FIND "${err}" "${EXPECT_STDERR}" at)
if(NOT at EQUAL 0)
  message(FATAL_ERROR "stderr does not start with '${EXPECT_STDERR}':\n${err}")
endif()
