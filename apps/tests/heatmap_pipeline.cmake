# End-to-end spatial pipeline: run an instrumented PNDCA simulation with
# --heatmap and --metrics, check every artifact (heatmap JSON + the three
# PPM channels + the run report's spatial section), then drive casurf_report
# in single and A/B mode over the spatial summaries, and check its phase
# shares against the loop wall. Also records a --drift-corr reference and
# replays a monitored run against it.
#
# Driven by ctest as:  cmake -DCASURF_RUN=... -DCASURF_REPORT=... -DWORK_DIR=... -P this
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(common --model zgb --size 32x32 --t-end 4 --dt 0.5 --quiet)

execute_process(COMMAND ${CASURF_RUN} ${common} --algorithm pndca --seed 9
                        --heatmap ${WORK_DIR}/hm --heatmap-every 4
                        --metrics ${WORK_DIR}/a.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "heatmap run failed (exit ${rc})")
endif()

foreach(artifact hm.json hm.attempts.ppm hm.fires.ppm hm.occupancy.ppm)
  if(NOT EXISTS ${WORK_DIR}/${artifact})
    message(FATAL_ERROR "--heatmap did not write ${artifact}")
  endif()
endforeach()

file(READ ${WORK_DIR}/hm.json heatmap)
if(NOT heatmap MATCHES "\"schema\":\"casurf-heatmap/1\"")
  message(FATAL_ERROR "heatmap JSON carries the wrong schema")
endif()
if(NOT heatmap MATCHES "\"summary\": *\\{")
  message(FATAL_ERROR "heatmap JSON is missing the partition summary")
endif()

# P6 header with the lattice dimensions (binary body follows the newline);
# the hex literal is "P6\n32 32\n255\n".
file(READ ${WORK_DIR}/hm.fires.ppm ppm LIMIT 13 HEX)
if(NOT ppm STREQUAL "50360a33322033320a3235350a")
  message(FATAL_ERROR "activity PPM does not start with a P6 32x32 header: ${ppm}")
endif()

file(READ ${WORK_DIR}/a.json report)
if(NOT report MATCHES "\"spatial\": *\\{")
  message(FATAL_ERROR "run report is missing the spatial section")
endif()

execute_process(COMMAND ${CASURF_REPORT} ${WORK_DIR}/a.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "casurf_report rejected the run report (exit ${rc})")
endif()
if(NOT out MATCHES "spatial:.*chunks.*fire imbalance")
  message(FATAL_ERROR "casurf_report did not print the spatial section:\n${out}")
endif()

# The phase table's shares are of the run's loop wall: a --metrics-only
# serial PNDCA run spends nearly all of it inside pndca/step, and no timer,
# nested ones included, can exceed the wall.
execute_process(COMMAND ${CASURF_RUN} ${common} --algorithm pndca --seed 9
                        --metrics ${WORK_DIR}/wall.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "metrics-only run failed (exit ${rc})")
endif()
execute_process(COMMAND ${CASURF_REPORT} ${WORK_DIR}/wall.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "casurf_report rejected the metrics-only report (exit ${rc})")
endif()
string(REGEX MATCH "phases:.*counters:" phases "${out}")
if(NOT phases MATCHES "pndca/step +[0-9]+ +[0-9.]+ +[0-9.]+ +[0-9.]+ +([0-9.]+)%")
  message(FATAL_ERROR "phase table has no pndca/step share:\n${out}")
endif()
if(CMAKE_MATCH_1 LESS 90)
  message(FATAL_ERROR "pndca/step is ${CMAKE_MATCH_1}% of the loop wall, expected >= 90%:\n${out}")
endif()
string(REGEX MATCHALL "[0-9.]+%" shares "${phases}")
foreach(share IN LISTS shares)
  string(REPLACE "%" "" share "${share}")
  if(share GREATER 100)
    message(FATAL_ERROR "a timer shows ${share}% of the loop wall:\n${out}")
  endif()
endforeach()

# Second run on a different algorithm for the A/B spatial delta rows.
execute_process(COMMAND ${CASURF_RUN} ${common} --algorithm lpndca --L 4 --seed 10
                        --heatmap ${WORK_DIR}/hm_b --metrics ${WORK_DIR}/b.json
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second heatmap run failed (exit ${rc})")
endif()
execute_process(COMMAND ${CASURF_REPORT} ${WORK_DIR}/a.json ${WORK_DIR}/b.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "casurf_report A/B failed (exit ${rc})")
endif()
if(NOT out MATCHES "spatial_fire_imbalance")
  message(FATAL_ERROR "A/B output is missing the spatial delta rows:\n${out}")
endif()

# Correlation-profile leg: record with --drift-corr, monitor a replay.
execute_process(COMMAND ${CASURF_RUN} ${common} --algorithm vssm --seed 11
                        --drift-record ${WORK_DIR}/ref.json --drift-window 1
                        --drift-corr --drift-corr-rmax 4
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--drift-corr recording failed (exit ${rc})")
endif()
file(READ ${WORK_DIR}/ref.json profile)
if(NOT profile MATCHES "\"corr_pairs\":")
  message(FATAL_ERROR "profile recorded without correlation pairs")
endif()
execute_process(COMMAND ${CASURF_RUN} ${common} --algorithm vssm --seed 12
                        --drift-ref ${WORK_DIR}/ref.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "corr-monitored run failed (exit ${rc})")
endif()
if(NOT out MATCHES "# drift:")
  message(FATAL_ERROR "corr-monitored run did not print a drift summary:\n${out}")
endif()
