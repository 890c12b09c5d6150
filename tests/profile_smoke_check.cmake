# The profile-smoke checks, run as a ctest entry (label `smoke`):
#
#   cmake -DTABLE0=<table0_switch_cost> -DMATRIX=<pvm-matrix>
#         -DPROFILE=<pvm-profile> -DBENCHDIFF=<benchdiff> -DJQ=<jq>
#         -DOUT_DIR=<dir> -P profile_smoke_check.cmake
#
# The pvm::prof pipeline end to end, with every document written to OUT_DIR
# (CI uploads that directory):
#   - table0_switch_cost --profile, twice, byte-identical. The switch
#     benches drive hypervisor primitives directly with no op-level spans,
#     so this profile is legitimately empty: the schema edge case of a
#     valid, byte-stable empty pvm.profile.v1 document.
#   - pvm-matrix --profile over pvm,kvm-spt x syscall,pagefault, byte-
#     identical between --jobs 1 and --jobs 4 (the deterministic merge).
#   - Both documents are pvm.profile.v1 with no dropped spans and an ops
#     array; the matrix one has ops, each with a name, a count, min <= max,
#     p50 <= p99 <= max and at least one path.
#   - pvm-profile renders the blame table naming the kvm-spt mmu_lock wait
#     on the page-fault critical path (the paper's Fig. 10 story), and the
#     collapsed stacks.
#   - Inflating that wait's exclusive time 10x in a copy of the document
#     trips benchdiff's share-drift gate: exit 1 and a FAIL line naming it.

foreach(var TABLE0 MATRIX PROFILE BENCHDIFF JQ OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "profile_smoke_check.cmake needs -D${var}")
  endif()
endforeach()
if(NOT EXISTS "${JQ}")
  message(FATAL_ERROR "jq not found ('${JQ}'): the profile checks need it")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# Runs a command from OUT_DIR and fails unless it exits with `expect_rc`.
function(run_expect expect_rc what)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${OUT_DIR}"
                  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR "${what}: expected exit ${expect_rc}, got ${rc}\n${err}")
  endif()
endfunction()

function(expect_same a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${OUT_DIR}/${a}" "${OUT_DIR}/${b}"
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${what}: ${a} differs from ${b}")
  endif()
  message(STATUS "ok: ${what}")
endfunction()

function(expect_jq file check)
  execute_process(COMMAND "${JQ}" -e "${check}" "${file}" WORKING_DIRECTORY "${OUT_DIR}"
                  OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${file} fails jq -e '${check}' (exit ${rc}) ${err}")
  endif()
endfunction()

function(expect_contains file needle what)
  file(READ "${OUT_DIR}/${file}" text)
  string(FIND "${text}" "${needle}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${what}: ${file} lacks \"${needle}\":\n${text}")
  endif()
  message(STATUS "ok: ${what}")
endfunction()

# table0 --profile, twice (deterministic export).
run_expect(0 "table0_switch_cost --profile" "${TABLE0}" --profile table0_a.json)
run_expect(0 "table0_switch_cost --profile" "${TABLE0}" --profile table0_b.json)
expect_same(table0_a.json table0_b.json "table0 --profile is byte-identical across runs")

# pvm-matrix --profile, --jobs 1 vs 4 (byte-identical merge).
foreach(jobs 1 4)
  run_expect(0 "pvm-matrix --profile --jobs ${jobs}"
             "${MATRIX}" --modes pvm,kvm-spt --workloads syscall,pagefault --jobs ${jobs}
             --out /dev/null --profile matrix-jobs${jobs}.json)
endforeach()
expect_same(matrix-jobs1.json matrix-jobs4.json
            "pvm-matrix --profile is byte-identical at --jobs 1 and 4")

# Validate pvm.profile.v1.
foreach(file table0_a.json matrix-jobs1.json)
  expect_jq(${file} [[.schema == "pvm.profile.v1"]])
  expect_jq(${file} [[.dropped_spans == 0]])
  expect_jq(${file} [[.ops | type == "array"]])
endforeach()
expect_jq(matrix-jobs1.json [[.ops | length > 0]])
expect_jq(matrix-jobs1.json [[.ops | all(.name != null and .count > 0
                                         and .min_ns <= .max_ns and .p50_ns <= .p99_ns
                                         and .p99_ns <= .max_ns
                                         and (.paths | length > 0))]])
message(STATUS "ok: both documents are pvm.profile.v1")

# Render the blame table and the collapsed stacks.
set(mmu_wait "op.page_fault;spt_fill;lock_wait:kvm-spt:c0.mmu_lock")
execute_process(COMMAND "${PROFILE}" matrix-jobs1.json WORKING_DIRECTORY "${OUT_DIR}"
                OUTPUT_FILE "${OUT_DIR}/blame.txt" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pvm-profile failed (exit ${rc})")
endif()
expect_contains(blame.txt "${mmu_wait}" "the blame table names kvm-spt's mmu_lock wait")
execute_process(COMMAND "${PROFILE}" matrix-jobs1.json --collapsed WORKING_DIRECTORY "${OUT_DIR}"
                OUTPUT_FILE "${OUT_DIR}/collapsed.txt" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pvm-profile --collapsed failed (exit ${rc})")
endif()
expect_contains(collapsed.txt "op.page_fault " "collapsed stacks list op.page_fault")

# An injected phase slowdown must trip the gate (exit 1) and name the path.
execute_process(COMMAND "${JQ}"
                        "(.ops[] | select(.name == \"kvm-spt/pagefault/pagefault/op.page_fault\")
                         | .paths[] | select(.path == \"${mmu_wait}\") | .excl_ns) *= 10"
                        matrix-jobs1.json
                WORKING_DIRECTORY "${OUT_DIR}" OUTPUT_FILE "${OUT_DIR}/matrix-slow.json"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "jq could not inject the slowdown (exit ${rc})")
endif()
execute_process(COMMAND "${BENCHDIFF}" matrix-jobs1.json matrix-slow.json
                WORKING_DIRECTORY "${OUT_DIR}" OUTPUT_FILE "${OUT_DIR}/gate.txt"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "benchdiff on the injected slowdown: expected exit 1, got ${rc}")
endif()
expect_contains(gate.txt "FAIL share_pct.${mmu_wait}"
                "the injected slowdown trips benchdiff's share-drift gate")
