# Runs chronolog-lint --analyze once per malformed --degree-budget value and
# requires exit status 1 (`lint.bad_flag_value`). The program is a clean
# example, so a value the parser wrongly accepted would instead exit 0; the
# valid-value control run checks exactly that.
#
#   cmake -DLINT=path/to/chronolog-lint -P lint_bad_flags_test.cmake

if(NOT LINT)
  message(FATAL_ERROR "pass -DLINT=<chronolog-lint binary>")
endif()
set(program "${CMAKE_CURRENT_LIST_DIR}/../examples/programs/quickstart.tdl")

function(expect_exit code)
  execute_process(COMMAND "${LINT}" --analyze ${ARGN} "${program}"
                  RESULT_VARIABLE result OUTPUT_QUIET ERROR_QUIET
                  TIMEOUT 30)
  if(NOT result STREQUAL "${code}")
    message(FATAL_ERROR "chronolog-lint --analyze ${ARGN}: exit '${result}', "
                        "expected ${code}")
  endif()
endfunction()

expect_exit(0 --degree-budget=8)
# Out of int range: must not wrap to 1 or to -1.
expect_exit(1 --degree-budget=4294967297)
expect_exit(1 --degree-budget=99999999999999999999)
expect_exit(1 --degree-budget=-1)
expect_exit(1 --degree-budget=)
expect_exit(1 --degree-budget=abc)
expect_exit(1 --degree-budget=8abc)
expect_exit(1 --degree-budget=+8)
expect_exit(1 "--degree-budget= 8")
