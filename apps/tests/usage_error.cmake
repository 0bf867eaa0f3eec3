# A command that must fail as a usage error, driven as
#   cmake "-DCMD=<program>;<arg>;..." -DEXPECT=<regex> -P usage_error.cmake
#
# Passes only on exit code 2 (the usage-error code of casurf_run and
# casurf_report) with output, stdout and stderr together, matching EXPECT.
# WILL_FAIL is not enough: it also passes on exit 1 (a runtime error) and on
# a crash.

if(NOT DEFINED CMD OR NOT DEFINED EXPECT)
  message(FATAL_ERROR "usage: cmake -DCMD=... -DEXPECT=... -P usage_error.cmake")
endif()

execute_process(COMMAND ${CMD} RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "2")
  message(FATAL_ERROR "expected exit 2 (usage error), got '${code}' from: ${CMD}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit 2, but the message does not match '${EXPECT}':\n${out}${err}")
endif()
