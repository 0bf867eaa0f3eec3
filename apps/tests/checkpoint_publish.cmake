# A checkpoint whose every publish fails must leave the previous one at
# PATH, driven as
#   cmake -DCASURF_RUN=<casurf_run> -DWORK_DIR=<dir> -P checkpoint_publish.cmake
#
# A ZGB run checkpoints to t = 1; its resume to t = 2 writes three
# checkpoints under io/atomic_write/rename=prob@1, so every publish fails.
# The resumed run still exits 0, PATH must still exist afterwards with
# PATH.bak and no other file beside it, and a resume from PATH alone (no
# fallback to PATH.bak) must reproduce the uninterrupted run's CSV.

foreach(var CASURF_RUN WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "checkpoint_publish.cmake: ${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/ck")
set(ck "${WORK_DIR}/ck/run.ck")
set(args --model zgb --size 32x32 --dt 0.5 --seed 3 --quiet)

function(run label expect_code)
  execute_process(COMMAND ${CASURF_RUN} ${ARGN}
                  RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT code STREQUAL "${expect_code}")
    message(FATAL_ERROR "${label} exited '${code}', expected ${expect_code}:\n${out}${err}")
  endif()
  set(run_output "${out}${err}" PARENT_SCOPE)
endfunction()

run("the uninterrupted run" 0 ${args} --t-end 2 --csv ${WORK_DIR}/full.csv)
run("the checkpointed run" 0 ${args} --t-end 1 --checkpoint ${ck})
run("the resume whose publishes fail" 0 ${args} --t-end 2 --resume ${ck} --checkpoint ${ck}
    --failpoints io/atomic_write/rename=prob@1)
if(NOT run_output MATCHES "checkpoint write failed after 3 attempts")
  message(FATAL_ERROR "the failpoint did not fail the publishes:\n${run_output}")
endif()
if(NOT EXISTS "${ck}")
  message(FATAL_ERROR "${ck} is gone after its publishes failed")
endif()
# The rotations and the failed publishes leave no temporary file behind.
file(GLOB left RELATIVE "${WORK_DIR}/ck" "${WORK_DIR}/ck/*")
list(SORT left)
if(NOT left STREQUAL "run.ck;run.ck.bak")
  message(FATAL_ERROR "the checkpoint directory holds '${left}', expected run.ck and run.ck.bak")
endif()

file(REMOVE "${ck}.bak")
run("the resume from PATH" 0 ${args} --t-end 2 --resume ${ck} --csv ${WORK_DIR}/resumed.csv)
if(run_output MATCHES "falling back")
  message(FATAL_ERROR "the resume did not restore from ${ck}:\n${run_output}")
endif()
file(READ "${WORK_DIR}/full.csv" full)
file(READ "${WORK_DIR}/resumed.csv" resumed)
if(NOT full STREQUAL resumed)
  message(FATAL_ERROR "the resume from ${ck} differs from the uninterrupted run")
endif()
