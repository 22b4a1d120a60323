# Runs one deterministic bench and compares its stdout with the committed
# golden byte for byte. With -DREFRESH=ON it rewrites the golden instead.
#
#   cmake -DBENCH=<exe> -DGOLDEN=<file> -DACTUAL=<file> [-DREFRESH=ON] -P run_golden.cmake
execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()

if(REFRESH)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E copy "${ACTUAL}" "${GOLDEN}")
  message(STATUS "refreshed ${GOLDEN}")
  return()
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "output of ${BENCH} differs from ${GOLDEN} (full output in "
                      "${ACTUAL}); if the change is intended, rebuild and run "
                      "`cmake --build <build> --target refresh_goldens`")
endif()
