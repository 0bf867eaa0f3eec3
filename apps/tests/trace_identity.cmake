# Tracing must never perturb the trajectory: a 7-thread parallel PNDCA run
# with --trace attached has to produce a byte-identical trajectory CSV to the
# same run without it, and the emitted trace has to be loadable (and its
# schema/footer valid) through casurf_report --trace.
#
# Driven by ctest as:  cmake -DCASURF_RUN=... -DCASURF_REPORT=... -DWORK_DIR=... -P this
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(common --model zgb --algorithm parallel --threads 7 --size 40x40
    --t-end 2 --dt 0.25 --seed 99 --quiet)

execute_process(COMMAND ${CASURF_RUN} ${common} --csv ${WORK_DIR}/plain.csv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "baseline run failed (exit ${rc})")
endif()

execute_process(COMMAND ${CASURF_RUN} ${common} --csv ${WORK_DIR}/traced.csv
                        --trace ${WORK_DIR}/trace.json
                        --metrics ${WORK_DIR}/report.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced run failed (exit ${rc})")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        ${WORK_DIR}/plain.csv ${WORK_DIR}/traced.csv
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "trajectory CSV differs with tracing attached")
endif()

# The trace must parse and carry per-worker rings (main + 7 workers).
execute_process(COMMAND ${CASURF_REPORT} --trace ${WORK_DIR}/trace.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "casurf_report --trace rejected the trace (exit ${rc})")
endif()
foreach(needle "threads/busy" "threads/wait" "worker6" "\\(main\\)")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "trace summary missing '${needle}':\n${out}")
  endif()
endforeach()

# And the run report must load in casurf_report's single-file mode.
execute_process(COMMAND ${CASURF_REPORT} ${WORK_DIR}/report.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "casurf_report rejected the run report (exit ${rc})")
endif()
if(NOT out MATCHES "thread balance")
  message(FATAL_ERROR "run-report summary missing thread balance:\n${out}")
endif()
