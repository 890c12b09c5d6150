# Behavioral checks for the flags every bench binary shares (BenchIo in
# bench/bench_common.h), run as ctest script entries:
#
#   cmake -DCASE=<case> -DTABLE2=<table2_syscall> -DSIMCORE=<simcore_micro>
#         -DWORK_DIR=<dir> -P bench_flags_check.cmake
#
# Cases:
#   faults       --faults arms the plan on every platform a bench builds:
#                table2_syscall --faults latency --json counts
#                fault_injected > 0 in some run.
#   bad_faults   a plan that does not parse exits 2 before any simulation
#                (nothing on stdout, not even the header).
#   passthrough  google-benchmark takes its own flags before BenchIo parses
#                the rest: --benchmark_filter mixed with --profile and
#                --flight-capacity exits 0 and writes the profile.
#   unknown_flag a flag BenchIo does not know (a typo of --json beside a
#                real --json) exits 2 before any output: nothing on stdout,
#                no export written, and stderr names the flag.
#   missing_value  a trailing value flag (--json) exits 2 the same way.
#   simcore_unknown_flag  simcore_micro rejects what neither google-benchmark
#                nor BenchIo consumes, after google-benchmark took its own.

if(NOT DEFINED CASE OR NOT DEFINED TABLE2 OR NOT DEFINED SIMCORE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "bench_flags_check.cmake needs -DCASE -DTABLE2 -DSIMCORE -DWORK_DIR")
endif()

# The rejection cases run small, so a binary that ignores the bad flag
# finishes quickly instead of running its full-size measurement.
set(small ${CMAKE_COMMAND} -E env PVM_BENCH_SCALE=0.01)

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs a command, asserts its exit code, and returns stdout in `out_var` and
# stderr in `<out_var>_err`.
function(run_expect expect_rc out_var)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "${ARGN}: expected exit ${expect_rc}, got ${rc}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${out_var}_err "${err}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "faults")
  run_expect(0 out "${TABLE2}" --faults latency --json faults.json)
  file(READ "${WORK_DIR}/faults.json" doc)
  # Counters export only non-zero values, so any match means an injection.
  if(NOT doc MATCHES "\"fault_injected\":[1-9]")
    message(FATAL_ERROR "--faults latency injected nothing: no run has fault_injected > 0")
  endif()
  message(STATUS "ok: --faults latency reaches table2_syscall's platforms")

elseif(CASE STREQUAL "bad_faults")
  run_expect(2 out "${TABLE2}" --faults bogus)
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "bad --faults plan printed before exiting:\n${out}")
  endif()
  if(NOT out_err MATCHES "\\[bench\\] bad --faults plan 'bogus'")
    message(FATAL_ERROR "bad --faults plan not named on stderr:\n${out_err}")
  endif()
  message(STATUS "ok: --faults bogus exits 2 before any simulation")

elseif(CASE STREQUAL "passthrough")
  run_expect(0 out "${SIMCORE}" --benchmark_filter=BM_ResourceChurn
             --profile profile.json --flight-capacity 64)
  if(NOT EXISTS "${WORK_DIR}/profile.json")
    message(FATAL_ERROR "simcore_micro --profile wrote no profile.json")
  endif()
  message(STATUS "ok: simcore_micro takes google-benchmark flags beside BenchIo's")

elseif(CASE STREQUAL "unknown_flag")
  run_expect(2 out ${small} "${TABLE2}" --json unknown.json --jsno typo.json)
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "an unknown flag printed before exiting:\n${out}")
  endif()
  if(EXISTS "${WORK_DIR}/unknown.json" OR EXISTS "${WORK_DIR}/typo.json")
    message(FATAL_ERROR "an unknown flag still wrote an export")
  endif()
  if(NOT out_err MATCHES "\\[bench\\] unknown flag '--jsno'")
    message(FATAL_ERROR "unknown flag not named on stderr:\n${out_err}")
  endif()
  message(STATUS "ok: --jsno exits 2 before any output or export")

elseif(CASE STREQUAL "missing_value")
  run_expect(2 out ${small} "${TABLE2}" --report --json)
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "a value flag without its value printed before exiting:\n${out}")
  endif()
  if(NOT out_err MATCHES "\\[bench\\] --json needs a value")
    message(FATAL_ERROR "missing value not named on stderr:\n${out_err}")
  endif()
  message(STATUS "ok: a trailing --json exits 2 before any output")

elseif(CASE STREQUAL "simcore_unknown_flag")
  run_expect(2 out ${small} "${SIMCORE}" --benchmark_filter=BM_ResourceChurn --json unknown.json
             --bogus)
  if(NOT out STREQUAL "" OR EXISTS "${WORK_DIR}/unknown.json")
    message(FATAL_ERROR "simcore_micro ran before rejecting --bogus:\n${out}")
  endif()
  if(NOT out_err MATCHES "\\[bench\\] unknown flag '--bogus'")
    message(FATAL_ERROR "simcore_micro did not name --bogus on stderr:\n${out_err}")
  endif()
  message(STATUS "ok: simcore_micro rejects a flag neither parser consumes")

else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
