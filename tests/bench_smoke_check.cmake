# The bench-smoke export checks, run as a ctest entry (label `smoke`):
#
#   cmake -DTABLE0=<table0_switch_cost> -DTABLE2=<table2_syscall>
#         -DFIG10=<fig10_pagefault_scaling> -DJQ=<jq> -DOUT_DIR=<dir>
#         -P bench_smoke_check.cmake
#
# table0_switch_cost --json and table2_syscall --json (default scale), and
# fig10_pagefault_scaling --json at PVM_BENCH_SCALE=0.01, written to OUT_DIR
# (CI uploads that directory). Each export must be a pvm.bench.v1 document
# with labelled runs that carry values and counters, and its contention
# table must list lock classes: every row counts at least one instance and
# no row is named like an instance ("<class>.<key>"). A percentile never
# leaves the data: every span op row has p50 <= p95 <= p99 <= max_ns, and
# every contention row has wait and hold p50 <= p95 <= p99 <= the total.
# fig10's export must stay under 1 MB; per-instance rows made it 21.8 MB.

foreach(var TABLE0 TABLE2 FIG10 JQ OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke_check.cmake needs -D${var}")
  endif()
endforeach()
if(NOT EXISTS "${JQ}")
  message(FATAL_ERROR "jq not found ('${JQ}'): the export checks need it")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

function(export_json bin name)
  execute_process(COMMAND "${bin}" --json "${name}.json" WORKING_DIRECTORY "${OUT_DIR}"
                  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} --json failed (exit ${rc}):\n${err}")
  endif()
endfunction()

export_json("${TABLE0}" table0_switch_cost)
export_json("${TABLE2}" table2_syscall)
set(ENV{PVM_BENCH_SCALE} "0.01")
export_json("${FIG10}" fig10_pagefault_scaling)
unset(ENV{PVM_BENCH_SCALE})

set(checks
    [[.schema == "pvm.bench.v1"]]
    [[.runs | length > 0]]
    [[.runs | all(.label != null and (.values | length > 0))]]
    [[[.runs[] | select(.counters)] | length > 0]]
    [[[.runs[].resources[]?] | all(.instances >= 1)]]
    [[[.runs[].resources[]?.name] | all(test("\\.[0-9]+$") | not)]]
    [[[.runs[].spans?.ops[]?]
      | all(.p50_ns <= .p95_ns and .p95_ns <= .p99_ns and .p99_ns <= .max_ns)]]
    [[[.runs[].resources[]?]
      | all(.wait_p50_ns <= .wait_p95_ns and .wait_p95_ns <= .wait_p99_ns
            and .wait_p99_ns <= .wait_total_ns)]]
    [[[.runs[].resources[]?]
      | all(.hold_p50_ns <= .hold_p95_ns and .hold_p95_ns <= .hold_p99_ns
            and .hold_p99_ns <= .hold_total_ns)]])
foreach(name table0_switch_cost table2_syscall fig10_pagefault_scaling)
  foreach(check IN LISTS checks)
    execute_process(COMMAND "${JQ}" -e "${check}" "${name}.json" WORKING_DIRECTORY "${OUT_DIR}"
                    OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${name}.json fails jq -e '${check}' (exit ${rc}) ${err}")
    endif()
  endforeach()
  message(STATUS "ok: ${name}.json passes every export check")
endforeach()

file(SIZE "${OUT_DIR}/fig10_pagefault_scaling.json" fig10_bytes)
if(NOT fig10_bytes LESS 1000000)
  message(FATAL_ERROR "fig10 --json at PVM_BENCH_SCALE=0.01 is ${fig10_bytes} bytes, "
                      "not under 1 MB")
endif()
message(STATUS "ok: fig10 --json at PVM_BENCH_SCALE=0.01 is ${fig10_bytes} bytes")
