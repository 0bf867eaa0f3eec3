# Kill-and-restart test for casurf_run's checkpoint/resume flags, driven as
#   cmake -DAPP=<casurf_run binary> -DWORKDIR=<scratch dir> -P checkpoint_cli_test.cmake
#
# Scenario: a run crashes mid-flight (the run/kill failpoint SIGKILLs it
# right after a checkpointed sample, so no destructors, no final outputs —
# exactly what a power loss leaves behind), is resumed from its periodic
# checkpoint, and must produce outputs byte-identical to a run that was
# never interrupted. Then the primary
# checkpoint is corrupted and the resume must fall back to the rotated
# .bak copy — and still match.

if(NOT DEFINED APP OR NOT DEFINED WORKDIR)
  message(FATAL_ERROR "usage: cmake -DAPP=... -DWORKDIR=... -P checkpoint_cli_test.cmake")
endif()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

set(COMMON --model zgb --algorithm vssm --size 32x32 --t-end 6 --dt 1 --seed 11 --quiet)

function(run_expecting code)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rv)
  if(NOT rv EQUAL ${code})
    message(FATAL_ERROR "expected exit ${code}, got '${rv}' from: ${ARGN}")
  endif()
endfunction()

function(require_identical a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${what}: resumed output differs from the uninterrupted run")
  endif()
endfunction()

# 1. The reference: an uninterrupted run.
run_expecting(0 ${APP} ${COMMON}
              --csv "${WORKDIR}/full.csv" --snapshot "${WORKDIR}/full.snap")

# 2. The same run, checkpointing every dt, killed by SIGKILL at its third
#    sample, t = 3, right after that sample's checkpoint.
execute_process(COMMAND ${APP} ${COMMON} --checkpoint "${WORKDIR}/run.ck"
                        --failpoints run/kill=hit@3
                        --csv "${WORKDIR}/killed.csv" --snapshot "${WORKDIR}/killed.snap"
                RESULT_VARIABLE rv ERROR_VARIABLE err)
if(rv MATCHES "^[0-9]+$")
  message(FATAL_ERROR "expected death by signal, got exit ${rv}:\n${err}")
endif()
if(EXISTS "${WORKDIR}/killed.csv" OR EXISTS "${WORKDIR}/killed.snap")
  message(FATAL_ERROR "the killed run wrote final outputs")
endif()

# 3. Restart from the checkpoint; outputs must match byte for byte.
run_expecting(0 ${APP} ${COMMON} --resume "${WORKDIR}/run.ck"
              --csv "${WORKDIR}/resumed.csv" --snapshot "${WORKDIR}/resumed.snap")
require_identical("${WORKDIR}/full.csv" "${WORKDIR}/resumed.csv" "csv after resume")
require_identical("${WORKDIR}/full.snap" "${WORKDIR}/resumed.snap" "snapshot after resume")

# 4. Corrupt the primary checkpoint; the resume must reject it, fall back
#    to run.ck.bak, and still reproduce the uninterrupted outputs.
if(NOT EXISTS "${WORKDIR}/run.ck.bak")
  message(FATAL_ERROR "checkpoint rotation left no run.ck.bak")
endif()
file(WRITE "${WORKDIR}/run.ck" "this is not a checkpoint")
run_expecting(0 ${APP} ${COMMON} --resume "${WORKDIR}/run.ck"
              --csv "${WORKDIR}/fallback.csv" --snapshot "${WORKDIR}/fallback.snap")
require_identical("${WORKDIR}/full.csv" "${WORKDIR}/fallback.csv" "csv after fallback")
require_identical("${WORKDIR}/full.snap" "${WORKDIR}/fallback.snap" "snapshot after fallback")

# 5. With the fallback also gone, the resume must fail loudly, not start
#    over — exit 3, the dedicated restore-failed code (docs/ROBUSTNESS.md).
file(REMOVE "${WORKDIR}/run.ck.bak")
run_expecting(3 ${APP} ${COMMON} --resume "${WORKDIR}/run.ck"
              --csv "${WORKDIR}/never.csv")
if(EXISTS "${WORKDIR}/never.csv")
  message(FATAL_ERROR "failed resume still wrote outputs")
endif()
