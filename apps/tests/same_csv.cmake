# Two casurf_run invocations that must both exit 0 and write byte-identical
# trajectory CSVs and final snapshots, driven as
#   cmake -DCASURF_RUN=<program> -DWORK_DIR=<dir> "-DCOMMON=<arg>;..."
#         "-DFIRST=<arg>;..." "-DSECOND=<arg>;..." -P same_csv.cmake
# Each run gets COMMON plus its own arguments, and --csv and --snapshot into
# WORK_DIR.

if(NOT DEFINED CASURF_RUN OR NOT DEFINED WORK_DIR OR NOT DEFINED FIRST OR NOT DEFINED SECOND)
  message(FATAL_ERROR "usage: cmake -DCASURF_RUN=... -DWORK_DIR=... -DCOMMON=... "
                      "-DFIRST=... -DSECOND=... -P same_csv.cmake")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

foreach(run FIRST SECOND)
  execute_process(COMMAND ${CASURF_RUN} ${COMMON} ${${run}} --csv ${WORK_DIR}/${run}.csv
                          --snapshot ${WORK_DIR}/${run}.snap
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${run} run failed (exit ${rc}): ${COMMON} ${${run}}\n${out}${err}")
  endif()
endforeach()

foreach(kind csv snap)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          ${WORK_DIR}/FIRST.${kind} ${WORK_DIR}/SECOND.${kind}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "the ${kind} files of '${FIRST}' and '${SECOND}' differ")
  endif()
endforeach()
