# Run versa_taskbench (BIN) with malformed numeric flags and require each
# to be rejected as a usage error (exit code 2) before anything is built,
# rather than aborting on a CHECK or silently misreading the value.
#
#   cmake -DBIN=<versa_taskbench> -P versa_taskbench_usage.cmake
foreach(args IN ITEMS
    "--smp;x"                               # not a number
    "--smp;13"                              # more cores than the node has
    "--width;4x"                            # trailing garbage
    "--steps;-1"                            # sign
    "--task-cost;1e-3s"                     # trailing garbage
    "--metg-tol;1"                          # bisection never narrows
    "--metg;--metg-lo;1e-2;--metg-hi;1e-3") # empty bracket
  execute_process(
    COMMAND "${BIN}" ${args}
    OUTPUT_QUIET
    ERROR_VARIABLE error
    RESULT_VARIABLE status)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR
      "versa_taskbench ${args} exited with '${status}', expected 2:\n${error}")
  endif()
endforeach()
