# A resume under a command line that rebuilds a different simulator than the
# checkpoint's must be refused, driven as
#   cmake -DCASURF_RUN=<casurf_run> -DWORK_DIR=<dir> "-DFIRST=<arg>;..."
#         "-DSECOND=<arg>;..." -DEXPECT=<regex> -P resume_mismatch.cmake
#
# FIRST runs to its end with --checkpoint; SECOND resumes from that
# checkpoint and must exit 3, the restore-failed code, with output matching
# EXPECT.

foreach(var CASURF_RUN WORK_DIR FIRST SECOND EXPECT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "resume_mismatch.cmake: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(ck "${WORK_DIR}/run.ck")

execute_process(COMMAND ${CASURF_RUN} ${FIRST} --checkpoint ${ck}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "0")
  message(FATAL_ERROR "the checkpointed run exited '${code}':\n${out}${err}")
endif()

execute_process(COMMAND ${CASURF_RUN} ${SECOND} --resume ${ck}
                RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL "3")
  message(FATAL_ERROR "expected exit 3 (restore failed), got '${code}':\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT}")
  message(FATAL_ERROR "exit 3, but the message does not match '${EXPECT}':\n${out}${err}")
endif()
