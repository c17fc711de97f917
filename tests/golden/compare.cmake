# Runs one paper-exhibit binary and byte-compares its stdout with the
# recorded golden file. Invoked by ctest as
#   cmake -DEXE=<binary> -DGOLDEN=<file.txt> -DACTUAL=<out.txt> -P compare.cmake
execute_process(COMMAND "${EXE}" OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${ACTUAL}" "${GOLDEN}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${EXE} differs from ${GOLDEN} (actual: ${ACTUAL})")
endif()
