# Checkpoint/resume byte-identity smoke test, run via `cmake -P`.
#
# Inputs (all -D):
#   TOPOCON_CLI  path to the topocon binary
#   SCENARIO     scenario name to run
#   RUN_FLAGS    extra flags for `run` (semicolon-separated list; may be
#                empty)
#   FAIL_AFTER   checkpoint appends before the simulated crash
#   WORK_DIR     scratch directory (recreated)
#   LEGACY_CHECKPOINT, LEGACY_GOLDEN
#                optional pair: a committed partial checkpoint written by
#                an older topocon, and the document resuming it must
#                finalize to, byte for byte
#
# Protocol: an uninterrupted single-threaded run, an uninterrupted
# 4-thread run, and an interrupted-then-resumed 4-thread run must all
# produce byte-identical finalized JSON.

foreach(var TOPOCON_CLI SCENARIO FAIL_AFTER WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "missing -D${var}")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli expect_code)
  execute_process(
    COMMAND ${TOPOCON_CLI} ${ARGN}
    RESULT_VARIABLE code
    OUTPUT_VARIABLE output
    ERROR_VARIABLE output)
  if(NOT code EQUAL expect_code)
    message(FATAL_ERROR
      "topocon ${ARGN} exited ${code} (expected ${expect_code}):\n${output}")
  endif()
endfunction()

run_cli(0 run ${SCENARIO} ${RUN_FLAGS} --threads=1
  --json=${WORK_DIR}/serial.json)
run_cli(0 run ${SCENARIO} ${RUN_FLAGS} --threads=4
  --json=${WORK_DIR}/parallel.json)
run_cli(3 run ${SCENARIO} ${RUN_FLAGS} --threads=4
  --json=${WORK_DIR}/resumed.json --fail-after=${FAIL_AFTER})
# Tear the checkpoint's trailing line (what a real SIGKILL mid-append
# leaves), interrupt the resume once more, then finish: the final
# document must still be byte-identical.
file(READ ${WORK_DIR}/resumed.json ckpt)
string(LENGTH "${ckpt}" ckpt_len)
math(EXPR torn_len "${ckpt_len} - 10")
string(SUBSTRING "${ckpt}" 0 ${torn_len} ckpt)
file(WRITE ${WORK_DIR}/resumed.json "${ckpt}")
run_cli(3 resume ${WORK_DIR}/resumed.json --threads=2 --fail-after=1)
run_cli(0 resume ${WORK_DIR}/resumed.json --threads=4)

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/serial.json ${WORK_DIR}/parallel.json
  RESULT_VARIABLE diff_parallel)
if(NOT diff_parallel EQUAL 0)
  message(FATAL_ERROR "1-thread and 4-thread JSON differ")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/serial.json ${WORK_DIR}/resumed.json
  RESULT_VARIABLE diff_resumed)
if(NOT diff_resumed EQUAL 0)
  message(FATAL_ERROR "uninterrupted and interrupted-resumed JSON differ")
endif()

# Resuming the finalized document must be a no-op that keeps it intact.
run_cli(0 resume ${WORK_DIR}/resumed.json)
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
    ${WORK_DIR}/serial.json ${WORK_DIR}/resumed.json
  RESULT_VARIABLE diff_noop)
if(NOT diff_noop EQUAL 0)
  message(FATAL_ERROR "resume of a finalized document modified it")
endif()

# An older checkpoint must stay resumable: its completed records load
# (members this build no longer writes are ignored), the missing jobs
# re-run, and the finalized document is written in the current format.
if(DEFINED LEGACY_CHECKPOINT)
  file(COPY_FILE ${LEGACY_CHECKPOINT} ${WORK_DIR}/legacy.json)
  run_cli(0 resume ${WORK_DIR}/legacy.json --threads=2)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
      ${LEGACY_GOLDEN} ${WORK_DIR}/legacy.json
    RESULT_VARIABLE diff_legacy)
  if(NOT diff_legacy EQUAL 0)
    message(FATAL_ERROR "resumed legacy checkpoint differs from "
      "${LEGACY_GOLDEN}")
  endif()
endif()

message(STATUS "resume smoke OK: ${SCENARIO}")
