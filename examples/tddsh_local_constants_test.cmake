# Drives tddsh over ski_schedule.tdl with an open query that names a
# constant the program does not know (a query-local constant), and requires
# both renderers to print its name: `?-` through QueryAnswer::ToString and
# `:unfold`, which prints the unfolded rows itself.
#
#   cmake -DTDDSH=path/to/tddsh -DPROGRAM=path/to/ski_schedule.tdl \
#         -P tddsh_local_constants_test.cmake

if(NOT TDDSH OR NOT PROGRAM)
  message(FATAL_ERROR "pass -DTDDSH=<tddsh binary> -DPROGRAM=<ski_schedule.tdl>")
endif()
set(input "${CMAKE_CURRENT_BINARY_DIR}/tddsh_local_constants.in")
file(WRITE "${input}"
     "?- ~plane(3, X) & ~plane(4, zz)\n"
     ":unfold 10 ~plane(3, X) & ~plane(4, zz)\n"
     ":quit\n")
execute_process(COMMAND "${TDDSH}" "${PROGRAM}"
                INPUT_FILE "${input}"
                OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE result TIMEOUT 60)
if(NOT result STREQUAL "0")
  message(FATAL_ERROR "tddsh exited '${result}':\n${out}\n${err}")
endif()
if(NOT out MATCHES "tdd> X = zz\n\\(with rewrite rule")
  message(FATAL_ERROR "`?-` did not answer X = zz:\n${out}")
endif()
if(NOT out MATCHES "tdd> X = zz\n\\(1 answers up to t=10\\)")
  message(FATAL_ERROR "`:unfold` did not answer X = zz:\n${out}")
endif()
