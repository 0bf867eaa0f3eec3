# Supervised execution end to end (docs/ROBUSTNESS.md): a worker that is
# repeatedly killed and whose checkpoints are corrupted mid-run must, under
# --supervise, still finish with a trajectory CSV byte-identical to an
# unperturbed run — and the run report must account for every restart. Also
# covers the watchdog, graceful SIGTERM shutdown with a final checkpoint,
# the retry budget, and the exact usage-error exit codes.
#
# Driven by ctest as:
#   cmake -DCASURF_RUN=... -DCASURF_REPORT=... -DWORK_DIR=... -DALGORITHM=... -P this
# where ALGORITHM is the casurf_run --algorithm whose checkpoints the kills,
# corruptions and resumes go through.
if(NOT DEFINED ALGORITHM)
  message(FATAL_ERROR "usage: cmake ... -DALGORITHM=<casurf_run algorithm> -P supervisor_test.cmake")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(common --model zgb --algorithm ${ALGORITHM} --size 32x32 --t-end 6 --dt 1
    --seed 11 --quiet)

function(run_expecting code)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rv ERROR_VARIABLE err)
  if(NOT rv EQUAL ${code})
    message(FATAL_ERROR "expected exit ${code}, got '${rv}' from: ${ARGN}\n${err}")
  endif()
endfunction()

function(require_identical a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${a}" "${b}"
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${what}: output differs from the unperturbed run")
  endif()
endfunction()

# Render a run report through casurf_report and require each needle.
function(require_report_matches report what)
  execute_process(COMMAND ${CASURF_REPORT} "${report}"
                  RESULT_VARIABLE rv OUTPUT_VARIABLE out)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "${what}: casurf_report rejected ${report} (exit ${rv})")
  endif()
  foreach(needle IN LISTS ARGN)
    if(NOT out MATCHES "${needle}")
      message(FATAL_ERROR "${what}: report summary missing '${needle}':\n${out}")
    endif()
  endforeach()
endfunction()

# 1. The reference: an unperturbed, unsupervised run.
run_expecting(0 ${CASURF_RUN} ${common} --csv "${WORK_DIR}/ref.csv")

# 2. Supervision with nothing going wrong is invisible: same CSV, and the
#    recovery section reports zero restarts.
run_expecting(0 ${CASURF_RUN} ${common} --csv "${WORK_DIR}/calm.csv"
              --checkpoint "${WORK_DIR}/calm.ck" --supervise
              --metrics "${WORK_DIR}/calm.json")
require_identical("${WORK_DIR}/ref.csv" "${WORK_DIR}/calm.csv" "calm supervised run")
require_report_matches("${WORK_DIR}/calm.json" "calm supervised run"
                       "recovery: supervised" "0 restarts")

# 3. Usage errors are exit 2.
run_expecting(2 ${CASURF_RUN} ${common} --supervise)                  # no --checkpoint
run_expecting(2 ${CASURF_RUN} ${common} --failpoints "a=hit@0")       # bad spec

# 3b. So is a run that can never start (a model file that does not parse,
#     ZGB at y = 1), and the supervisor forwards it from the first worker:
#     the error is printed once and no restart is logged.
foreach(bad "--model-file;${CMAKE_CURRENT_LIST_DIR}/undeclared_species.model" "--y;1")
  file(REMOVE "${WORK_DIR}/never.log")
  execute_process(COMMAND ${CASURF_RUN} ${common} ${bad} --checkpoint "${WORK_DIR}/never.ck"
                          --supervise=3 --log-level info --log-file "${WORK_DIR}/never.log"
                  RESULT_VARIABLE rv ERROR_VARIABLE err)
  if(NOT rv EQUAL 2)
    message(FATAL_ERROR "${bad} under --supervise=3: expected exit 2, got '${rv}':\n${err}")
  endif()
  string(REGEX MATCHALL "error: " errors "${err}")
  list(LENGTH errors n)
  if(NOT n EQUAL 1)
    message(FATAL_ERROR "${bad} under --supervise=3: ${n} error lines, not 1:\n${err}")
  endif()
  if(EXISTS "${WORK_DIR}/never.log")
    file(READ "${WORK_DIR}/never.log" log)
    if(log MATCHES "worker_restart")
      message(FATAL_ERROR "${bad} under --supervise=3 was restarted:\n${log}")
    endif()
  endif()
endforeach()

# 4. The torture run: the worker is SIGKILLed at its second checkpoint in
#    every generation, and every second checkpoint write is corrupted on
#    disk (forcing the .bak fallback on restore). The supervisor must grind
#    through to completion with a byte-identical CSV, and the report must
#    show the restarts it took.
run_expecting(0 ${CASURF_RUN} ${common} --csv "${WORK_DIR}/torture.csv"
              --checkpoint "${WORK_DIR}/torture.ck" --supervise=10
              --failpoints "run/kill=hit@2,io/checkpoint/corrupt=hit@2"
              --metrics "${WORK_DIR}/torture.json")
require_identical("${WORK_DIR}/ref.csv" "${WORK_DIR}/torture.csv" "torture run")
require_report_matches("${WORK_DIR}/torture.json" "torture run"
                       "recovery: supervised" "attempt 1: signal \\(9\\)"
                       "resumed at t = 1 from backup")

# 5. The watchdog: a worker that stalls (3 s sleep failpoint) past a 1 s
#    heartbeat deadline is killed and restarted; the record says why.
run_expecting(0 ${CASURF_RUN} ${common} --csv "${WORK_DIR}/stall.csv"
              --checkpoint "${WORK_DIR}/stall.ck" --supervise=10 --watchdog 1
              --failpoints "run/stall=hit@2"
              --metrics "${WORK_DIR}/stall.json")
require_identical("${WORK_DIR}/ref.csv" "${WORK_DIR}/stall.csv" "watchdog run")
require_report_matches("${WORK_DIR}/stall.json" "watchdog run"
                       "recovery: supervised" "attempt 1: watchdog")

# 6. Graceful shutdown: SIGTERM (injected mid-run) exits 128+15 after
#    writing a final checkpoint; resuming from it reproduces the reference.
run_expecting(143 ${CASURF_RUN} ${common} --checkpoint "${WORK_DIR}/term.ck"
              --failpoints "run/sigterm=hit@4")
run_expecting(0 ${CASURF_RUN} ${common} --resume "${WORK_DIR}/term.ck"
              --csv "${WORK_DIR}/term.csv")
require_identical("${WORK_DIR}/ref.csv" "${WORK_DIR}/term.csv" "post-SIGTERM resume")

# 7. The retry budget is honored: a worker killed in every generation
#    exhausts --supervise=1 and the supervisor gives up with exit 4.
run_expecting(4 ${CASURF_RUN} ${common} --checkpoint "${WORK_DIR}/doomed.ck"
              --supervise=1 --failpoints "run/kill=hit@1")
