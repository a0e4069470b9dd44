# Run versa_run (BIN) with malformed size flags and require each to be
# rejected as a usage error (exit code 2) before anything is built, rather
# than aborting on an app CHECK or silently misreading the value.
#
#   cmake -DBIN=<versa_run> -P versa_run_usage.cmake
foreach(args IN ITEMS
    "--app;cholesky;--n;1000;--block;64"  # block does not divide n
    "--smp;x"                             # not a number
    "--n;4096x")                          # trailing garbage
  execute_process(
    COMMAND "${BIN}" ${args}
    OUTPUT_QUIET
    ERROR_VARIABLE error
    RESULT_VARIABLE status)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR
      "versa_run ${args} exited with '${status}', expected 2:\n${error}")
  endif()
endforeach()
