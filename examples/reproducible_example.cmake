# Runs one example twice and fails unless the two stdouts are
# byte-identical: an example's output may not depend on the run (heap
# addresses, timing, hash-map order).
#
#   cmake -DEXAMPLE=<example binary> -DWORK_DIR=<scratch dir> \
#         -P reproducible_example.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(i 1 2)
  execute_process(
    COMMAND "${EXAMPLE}"
    OUTPUT_FILE "${WORK_DIR}/stdout_${i}.txt"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${i} exited with ${rc}")
  endif()
endforeach()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${WORK_DIR}/stdout_1.txt" "${WORK_DIR}/stdout_2.txt"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "the two runs' stdouts differ (kept in ${WORK_DIR})")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
