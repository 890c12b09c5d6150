# The migration-smoke checks, run as a ctest entry (label `smoke`):
#
#   cmake -DMATRIX=<pvm-matrix> -DSIMCHECK=<simcheck> -DJQ=<jq>
#         -DOUT_DIR=<dir> -P migration_smoke_check.cmake
#
# Live migration into pvm.bench.v1 and checkpoint-resume crash consistency,
# with every document and checkpoint written to OUT_DIR (CI uploads that
# directory):
#   - pvm-matrix --workloads migration: pvm (NST) migrates under both dirty
#     protocols with protocol-specific cost evidence (wp faults vs pml
#     appends); kvm-ept (NST) refuses, its live nested-VMX state pinning the
#     L1 instance (the paper's §2.3 claim in numbers).
#   - pvm-matrix checkpointed, stopped by --checkpoint-stop-after (exit 3)
#     and resumed at --jobs 8 writes the straight run's document, and its
#     completed checkpoint file equals a straight --jobs 1 run's.
#   - The same after the checkpoint's tail is torn mid-record: the resume
#     reports the torn tail, reruns the cut cell and still matches.
#   - simcheck's report is the same with and without --checkpoint, and
#     after its checkpoint's tail is torn and the sweep resumed; its
#     completed checkpoint file is the same at --jobs 1 and --jobs 8, for a
#     clean sweep and a failing one, and again after the torn-tail resume.
# The truncations use coreutils `truncate`.

foreach(var MATRIX SIMCHECK JQ OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "migration_smoke_check.cmake needs -D${var}")
  endif()
endforeach()
if(NOT EXISTS "${JQ}")
  message(FATAL_ERROR "jq not found ('${JQ}'): the migration checks need it")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# Runs a command from OUT_DIR with stdout to `out` and stderr to `err`
# (both in OUT_DIR), and fails unless it exits with `expect_rc`.
function(run_expect expect_rc what out err)
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY "${OUT_DIR}"
                  OUTPUT_FILE "${OUT_DIR}/${out}" ERROR_FILE "${OUT_DIR}/${err}"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL ${expect_rc})
    file(READ "${OUT_DIR}/${err}" stderr)
    message(FATAL_ERROR "${what}: expected exit ${expect_rc}, got ${rc}\n${stderr}")
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

# Sets `out_var` to the size in bytes of a checkpoint file's last record:
# the bytes from its last frame magic ("WALR") on.
function(last_record_bytes file out_var)
  file(READ "${OUT_DIR}/${file}" hex HEX)
  string(FIND "${hex}" "57414c52" pos REVERSE)
  math(EXPR nibble "${pos} % 2")
  if(pos EQUAL -1 OR nibble EQUAL 1)
    message(FATAL_ERROR "${file}: no frame magic on a byte boundary")
  endif()
  string(LENGTH "${hex}" len)
  math(EXPR bytes "(${len} - ${pos}) / 2")
  set(${out_var} ${bytes} PARENT_SCOPE)
endfunction()

# Drops the last `bytes` bytes of a file, as a crash mid-append would.
function(tear file bytes)
  execute_process(COMMAND truncate -s -${bytes} "${OUT_DIR}/${file}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "truncate -s -${bytes} ${file} failed (exit ${rc})")
  endif()
endfunction()

# The migration workload into pvm.bench.v1 (protocols + pinning).
run_expect(0 "pvm-matrix --workloads migration" unused.out migration.err
           "${MATRIX}" --modes pvm,ept --workloads migration --out migration.json)
expect_jq(migration.json [[.schema == "pvm.matrix.v1"]])
expect_jq(migration.json [[[.cells[] | select(.mode == "pvm") | .bench.runs[]
                            | select(.label | startswith("migration_"))
                            | .values.succeeded] | length == 2 and all(. == 1)]])
expect_jq(migration.json [[[.cells[] | select(.mode == "pvm") | .bench.runs[]
                            | select(.label == "migration_wp")
                            | .values.wp_faults] | add > 0]])
expect_jq(migration.json [[[.cells[] | select(.mode == "pvm") | .bench.runs[]
                            | select(.label == "migration_pml")
                            | .values.pml_appends] | add > 0]])
expect_jq(migration.json [[[.cells[] | select(.mode == "ept") | .bench.runs[]
                            | select(.label | startswith("migration_"))
                            | .values.succeeded] | all(. == 0)]])
message(STATUS "ok: pvm (NST) migrates under both protocols, kvm-ept (NST) refuses")

# pvm-matrix: checkpoint, stop early, resume.
set(spec --modes pvm,kvm-spt --workloads syscall,migration --seeds 2)
run_expect(0 "pvm-matrix straight" unused.out straight.err
           "${MATRIX}" ${spec} --jobs 8 --out straight.json)
run_expect(3 "pvm-matrix --checkpoint-stop-after 3" unused.out stop.err
           "${MATRIX}" ${spec} --checkpoint matrix.wal --checkpoint-stop-after 3
           --out unused.json)
run_expect(0 "pvm-matrix resumed" unused.out resumed.err
           "${MATRIX}" ${spec} --checkpoint matrix.wal --jobs 8 --out resumed.json)
expect_same(straight.json resumed.json "pvm-matrix resumed after a stop equals the straight run")
run_expect(0 "pvm-matrix straight --jobs 1 --checkpoint" unused.out straight-ckpt.err
           "${MATRIX}" ${spec} --jobs 1 --checkpoint straight.wal --out straight-ckpt.json)
expect_same(straight.json straight-ckpt.json
            "pvm-matrix --checkpoint at --jobs 1 equals the straight run")
expect_same(straight.wal matrix.wal
            "a completed checkpoint is the same straight at --jobs 1 and resumed at --jobs 8")

# A torn checkpoint tail: only the cut cell reruns, and the document holds.
run_expect(3 "pvm-matrix --checkpoint-stop-after 4" unused.out torn-stop.err
           "${MATRIX}" ${spec} --checkpoint torn.wal --checkpoint-stop-after 4
           --out unused.json)
tear(torn.wal 31)
run_expect(0 "pvm-matrix resumed from a torn tail" unused.out torn-err.txt
           "${MATRIX}" ${spec} --checkpoint torn.wal --jobs 8 --out torn-resumed.json)
expect_contains(torn-err.txt "checkpoint tail truncated" "pvm-matrix reports the torn tail")
expect_same(straight.json torn-resumed.json
            "pvm-matrix resumed from a torn tail equals the straight run")
expect_same(straight.wal torn.wal
            "a completed checkpoint is the same after a torn tail")

# simcheck: checkpoint resume identity, torn tail included, and completed
# checkpoint files that do not depend on --jobs.
set(sim_spec --modes pvm,kvm-spt --seeds 4)
run_expect(0 "simcheck straight" sim-straight.txt sim-straight.err
           "${SIMCHECK}" ${sim_spec} --jobs 8)
run_expect(0 "simcheck --checkpoint" sim-ckpt.txt sim-ckpt.err
           "${SIMCHECK}" ${sim_spec} --checkpoint sim.wal)
expect_same(sim-straight.txt sim-ckpt.txt "simcheck --checkpoint equals the straight report")
foreach(jobs 1 8)
  run_expect(0 "simcheck --checkpoint --jobs ${jobs}" unused.out sim-j${jobs}.err
             "${SIMCHECK}" ${sim_spec} --jobs ${jobs} --checkpoint sim-j${jobs}.wal)
  # A failing sweep exits with its count of failing combinations (all six).
  run_expect(6 "simcheck --debug-corrupt-from-seed 2 --jobs ${jobs}" unused.out
             corrupt-j${jobs}.err "${SIMCHECK}" ${sim_spec} --debug-corrupt-from-seed 2
             --jobs ${jobs} --checkpoint corrupt-j${jobs}.wal)
endforeach()
expect_same(sim-j1.wal sim-j8.wal
            "a completed simcheck checkpoint is the same at --jobs 1 and --jobs 8")
expect_same(sim-j1.wal sim.wal
            "a completed simcheck checkpoint is the same at the default --jobs")
expect_same(corrupt-j1.wal corrupt-j8.wal
            "a failing sweep's completed checkpoint is the same at --jobs 1 and --jobs 8")
# Cut through the trailing kCheckpoint record and 29 bytes into the last
# case record: that one case reruns, the other 23 replay.
last_record_bytes(sim.wal checkpoint_bytes)
math(EXPR cut "${checkpoint_bytes} + 29")
tear(sim.wal ${cut})
run_expect(0 "simcheck resumed from a torn tail" sim-resumed.txt sim-err.txt
           "${SIMCHECK}" ${sim_spec} --checkpoint sim.wal --jobs 8)
expect_contains(sim-err.txt "checkpoint tail truncated" "simcheck reports the torn tail")
expect_contains(sim-err.txt "simcheck: replayed 23 case(s) from sim.wal"
                "simcheck replays every case but the torn one")
expect_same(sim-straight.txt sim-resumed.txt
            "simcheck resumed from a torn tail equals the straight report")
expect_same(sim-j1.wal sim.wal
            "a simcheck checkpoint re-completed after a torn tail equals the straight one")
