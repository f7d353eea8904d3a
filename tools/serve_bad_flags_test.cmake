# Runs chronolog-serve once per integer flag with a malformed value and
# requires exit status 2 (`serve.bad_flag`). The program path does not
# exist, so a value the parser wrongly accepted would instead fail the load
# with exit status 1; the valid-value control run checks exactly that.
#
#   cmake -DSERVE=path/to/chronolog-serve -P serve_bad_flags_test.cmake

if(NOT SERVE)
  message(FATAL_ERROR "pass -DSERVE=<chronolog-serve binary>")
endif()
set(missing_program "${CMAKE_CURRENT_LIST_DIR}/no-such-program.tdl")

function(expect_exit code)
  execute_process(COMMAND "${SERVE}" ${ARGN} "${missing_program}"
                  RESULT_VARIABLE result OUTPUT_QUIET ERROR_QUIET
                  TIMEOUT 30)
  if(NOT result STREQUAL "${code}")
    message(FATAL_ERROR "chronolog-serve ${ARGN}: exit '${result}', "
                        "expected ${code}")
  endif()
endfunction()

expect_exit(1 --port=0)
expect_exit(2 --port=abc)
expect_exit(2 --workers=)
expect_exit(2 --idle-timeout-ms=1e3)
expect_exit(2 --max-requests-per-conn=12abc)
expect_exit(2 --max-inflight=99999999999)
expect_exit(2 --deadline-ms=+5)
expect_exit(2 "--max-rows= 7")
expect_exit(2 --slow-query-ms=0x10)
expect_exit(2 --trace-capacity=3.5)
# Removed flag: evaluation is sequential, so there is no thread count.
expect_exit(2 --threads=1)
