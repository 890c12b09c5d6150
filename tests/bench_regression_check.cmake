# The bench-regression gate, run as a ctest entry (label `smoke`):
#
#   cmake -DTABLE0=<table0_switch_cost> -DBENCHDIFF=<benchdiff> -DJQ=<jq>
#         -DBASELINE=<BENCH_baseline.json> -DOUT_DIR=<dir>
#         -P bench_regression_check.cmake
#
# Table 0's --json export holds virtual-clock quantities, deterministic per
# build, so any delta from the checked-in baseline beyond the threshold is
# modelling drift, not noise:
#   - benchdiff of table0's export against BENCH_baseline.json at
#     --threshold-pct 5 exits 0;
#   - the gate's self-test: a copy with every value of the first run
#     doubled (jq '.runs[0].values |= with_entries(.value *= 2)') makes
#     benchdiff --quiet exit 1.
# The export and the doubled copy are written to OUT_DIR (CI uploads it).

foreach(var TABLE0 BENCHDIFF JQ BASELINE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_regression_check.cmake needs -D${var}")
  endif()
endforeach()
if(NOT EXISTS "${JQ}")
  message(FATAL_ERROR "jq not found ('${JQ}'): the self-test needs it")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# Runs a command from OUT_DIR and fails unless it exits with `expect_rc`.
function(run_expect expect_rc what)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${OUT_DIR}"
                  OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "${what}: expected exit ${expect_rc}, got ${rc}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "ok: ${what}")
endfunction()

run_expect(0 "table0_switch_cost --json" "${TABLE0}" --json table0_head.json)
run_expect(0 "benchdiff of table0 against the baseline at --threshold-pct 5"
           "${BENCHDIFF}" "${BASELINE}" table0_head.json --threshold-pct 5)
execute_process(COMMAND "${JQ}" ".runs[0].values |= with_entries(.value *= 2)"
                        table0_head.json
                WORKING_DIRECTORY "${OUT_DIR}" OUTPUT_FILE "${OUT_DIR}/table0_inflated.json"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "jq could not double table0_head.json's values (exit ${rc})")
endif()
run_expect(1 "benchdiff fails a deliberate regression (every value doubled)"
           "${BENCHDIFF}" "${BASELINE}" table0_inflated.json --quiet)
