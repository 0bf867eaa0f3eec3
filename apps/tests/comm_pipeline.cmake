# Cross-process trace correlation end to end: two casurf_run workers carry
# distinct trace ids (one via --trace-id, one via the CASURF_TRACE_ID
# environment default), stamp them into their run-report headers and trace
# footers, and casurf_report --merge-traces stitches the two traces into
# one clock-aligned Chrome trace that --trace must accept as a valid
# casurf-trace/1 document.
#
# Driven by ctest as:  cmake -DCASURF_RUN=... -DCASURF_REPORT=... -DWORK_DIR=... -P this
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(common --model zgb --algorithm rsm --size 24x24 --t-end 1 --dt 0.5 --quiet)

execute_process(COMMAND ${CASURF_RUN} ${common} --seed 1
                        --trace ${WORK_DIR}/a_trace.json
                        --trace-id job-A
                        --metrics ${WORK_DIR}/a_report.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "worker A failed (exit ${rc})")
endif()

# Worker B gets its id the way a supervising environment would hand it out.
execute_process(COMMAND ${CMAKE_COMMAND} -E env CASURF_TRACE_ID=job-B
                        ${CASURF_RUN} ${common} --seed 2
                        --trace ${WORK_DIR}/b_trace.json
                        --metrics ${WORK_DIR}/b_report.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "worker B failed (exit ${rc})")
endif()

# The ids must land in the run-report headers (with the drop counter)...
file(READ ${WORK_DIR}/a_report.json a_report)
if(NOT a_report MATCHES "\"trace_id\":\"job-A\"")
  message(FATAL_ERROR "worker A report is missing its trace id")
endif()
if(NOT a_report MATCHES "\"trace_drops\":")
  message(FATAL_ERROR "worker A report is missing the trace_drops field")
endif()
file(READ ${WORK_DIR}/b_report.json b_report)
if(NOT b_report MATCHES "\"trace_id\":\"job-B\"")
  message(FATAL_ERROR "worker B report did not pick CASURF_TRACE_ID up")
endif()

# ...and in the trace footers next to the clock origin --merge-traces
# aligns on.
file(READ ${WORK_DIR}/a_trace.json a_trace)
if(NOT a_trace MATCHES "\"trace_id\":\"job-A\"" OR NOT a_trace MATCHES "\"t0_ns\":")
  message(FATAL_ERROR "worker A trace footer is missing trace_id/t0_ns")
endif()

execute_process(COMMAND ${CASURF_REPORT} --merge-traces ${WORK_DIR}/merged.json
                        ${WORK_DIR}/a_trace.json ${WORK_DIR}/b_trace.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--merge-traces failed (exit ${rc}):\n${out}")
endif()
foreach(needle "merged 2 traces" "job-A" "job-B")
  if(NOT out MATCHES "${needle}")
    message(FATAL_ERROR "merge summary missing '${needle}':\n${out}")
  endif()
endforeach()

# The merged document is itself a valid casurf-trace/1 file with the
# provenance of both inputs.
execute_process(COMMAND ${CASURF_REPORT} --trace ${WORK_DIR}/merged.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "casurf_report --trace rejected the merged trace (exit ${rc})")
endif()
file(READ ${WORK_DIR}/merged.json merged)
foreach(needle "\"trace_id\":\"job-A\"" "\"trace_id\":\"job-B\"" "\"merged\":")
  if(NOT merged MATCHES "${needle}")
    message(FATAL_ERROR "merged trace missing '${needle}'")
  endif()
endforeach()
