# Runs BIN with ARGS (one space-separated string) and requires exit code 2 and
# an empty stdout: a malformed command line is refused before any campaign
# runs, so no campaign summary is printed.
#
#   cmake -DBIN=build/tashkent_bench "-DARGS=run smoke --jobs 3x" -P tests/expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BIN}" ${args}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "'${ARGS}' exited with ${rc}, expected 2\nstdout:\n${out}\nstderr:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "'${ARGS}' ran a campaign:\n${out}")
endif()
