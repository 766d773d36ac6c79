# Runs one command and checks its exact exit code and its output. ctest's
# own properties cannot pin both: WILL_FAIL accepts any nonzero exit, and
# PASS_REGULAR_EXPRESSION ignores the exit code. Invoked as
#   cmake -DEXPECT_EXIT=<code> [-DEXPECT_REGEX=<regex>] -P check_cli.cmake
#         -- <command> [args...]
# and fails unless <command> exits with <code> and, when EXPECT_REGEX is
# given and nonempty, its stdout+stderr matches <regex>.
set(cmd "")
set(seen_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 1 ${last})
  if(seen_separator)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(seen_separator TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT_EXIT)
  message(FATAL_ERROR "usage: cmake -DEXPECT_EXIT=<code> "
                      "[-DEXPECT_REGEX=<regex>] -P check_cli.cmake -- <cmd>")
endif()

execute_process(COMMAND ${cmd} OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
message("${out}${err}")
list(JOIN cmd " " shown)
if(NOT rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "'${shown}' exited ${rc}, expected ${EXPECT_EXIT}")
endif()
if(NOT "${EXPECT_REGEX}" STREQUAL "")
  if(NOT "${out}${err}" MATCHES "${EXPECT_REGEX}")
    message(FATAL_ERROR "output of '${shown}' does not match '${EXPECT_REGEX}'")
  endif()
endif()
