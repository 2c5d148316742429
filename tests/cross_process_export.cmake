# Exports Rodinia from two separate diogenes processes and fails unless
# the two files are byte-identical: nothing in an export may depend on
# where the loader placed the code (ASLR).
#
#   cmake -DDIOGENES=<diogenes binary> -DWORK_DIR=<scratch dir> \
#         -P cross_process_export.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(i 1 2)
  execute_process(
    COMMAND "${DIOGENES}" Rodinia export "${WORK_DIR}/export_${i}.json"
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "export ${i} exited with ${rc}")
  endif()
endforeach()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${WORK_DIR}/export_1.json" "${WORK_DIR}/export_2.json"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "the two processes' exports differ "
                      "(kept in ${WORK_DIR})")
endif()
file(REMOVE_RECURSE "${WORK_DIR}")
