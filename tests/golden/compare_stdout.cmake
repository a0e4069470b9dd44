# Run BIN with no arguments and byte-compare its stdout with the file
# GOLDEN. On a mismatch the actual output is written to ACTUAL so it can be
# diffed against the golden file, and the test fails.
#
#   cmake -DBIN=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P compare_stdout.cmake
execute_process(
  COMMAND "${BIN}"
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR
    "stdout of ${BIN} differs from ${GOLDEN}; actual output written to "
    "${ACTUAL} (diff the two files)")
endif()
