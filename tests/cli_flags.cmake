# Pins how the diogenes CLI parses its flags: unknown flags, missing
# values and malformed or out-of-range values are usage errors (exit 2,
# usage on stderr); the legacy positional spellings read the same as
# their flags; and the fleet commands accept their documented flags.
#
#   cmake -DDIOGENES=<diogenes binary> -DWORK_DIR=<scratch dir> \
#         -P cli_flags.cmake
#
# `explore` and `serve` only ever get a bad flag here: with valid flags
# they serve until killed.
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(W "${WORK_DIR}")

# run(<expected exit code> <args...>): runs diogenes, fails unless it
# exits with the expected code, and leaves its stdout and stderr in
# OUT and ERR.
function(run expected)
  execute_process(COMMAND "${DIOGENES}" ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "${expected}")
    message(FATAL_ERROR "diogenes ${ARGN}: exit ${rc}, want ${expected}\n"
                        "stdout:\n${out}\nstderr:\n${err}")
  endif()
  set(OUT "${out}" PARENT_SCOPE)
  set(ERR "${err}" PARENT_SCOPE)
endfunction()

# The usage text: what diogenes with no arguments prints on stderr.
run(2)
set(USAGE "${ERR}")
if(NOT USAGE MATCHES "^usage: diogenes ")
  message(FATAL_ERROR "no usage text:\n${USAGE}")
endif()

# usage_error(<args...>): exit 2 with exactly the usage text on stderr.
function(usage_error)
  run(2 ${ARGN})
  if(NOT ERR STREQUAL USAGE)
    message(FATAL_ERROR "diogenes ${ARGN}: stderr is not the usage text\n"
                        "stderr:\n${ERR}")
  endif()
endfunction()

set(F "${W}/small.dgtrace")
run(0 synth "${F}" --events 2000 --problem-sites 2)

# An unknown flag, and a value flag with no value, for every subcommand
# that takes flags.
usage_error(--bogus Rodinia)
usage_error(--misplaced-us)
usage_error(trace dump "${F}" --bogus)
usage_error(trace dump "${F}" --max)
usage_error(trace tail "${F}" --bogus)
usage_error(trace tail "${F}" --poll-ms)
usage_error(trace watch "${F}" --bogus)
usage_error(trace watch "${F}" --poll-ms)
usage_error(explore "${W}" --bogus)
usage_error(explore "${W}" --port)
usage_error(archive ls "${W}" --bogus)
usage_error(archive add "${F}" --root)
usage_error(regress "${W}" --bogus)
usage_error(regress "${W}" --window)
usage_error(synth "${W}/x.dgtrace" --bogus)
usage_error(synth "${W}/x.dgtrace" --events)
usage_error(serve "${W}/hub" --bogus)
usage_error(serve "${W}/hub" --port)
usage_error(push "${F}" --bogus)
usage_error(push "${F}" --port)
usage_error(fuzz run-io --bogus)
usage_error(fuzz run-io --seed)
usage_error(fuzz minimize "${F}" --bogus)

# Malformed or out-of-range values.
usage_error(--misplaced-us abc Rodinia api)
usage_error(synth "${W}/x.dgtrace" --op-spacing-ns -5)
usage_error(synth "${W}/x.dgtrace" --footer-wall-ms -2)
usage_error(regress "${W}" --benefit-pct -1)
usage_error(trace tail "${F}" --poll-ms 0)
usage_error(trace watch "${F}" --jsonl)
usage_error(explore "${W}" --port 70000)
if(EXISTS "${W}/x.dgtrace")
  message(FATAL_ERROR "a rejected synth wrote its output file")
endif()
run(2 trace dump "${F}" --range 5)
if(NOT ERR STREQUAL "--range wants t0:t1 (got '5')\n")
  message(FATAL_ERROR "trace dump --range 5: stderr:\n${ERR}")
endif()

# The flight-recorder flags act only with --live.
foreach(flag --sink --heartbeat-ms --checkpoint-ms)
  if(flag STREQUAL "--sink")
    set(value tcp://127.0.0.1:1)
  else()
    set(value 50)
  endif()
  run(2 ${flag} ${value} Rodinia api)
  if(NOT ERR STREQUAL "${flag} requires --live\n${USAGE}")
    message(FATAL_ERROR "${flag} without --live: stderr:\n${ERR}")
  endif()
endforeach()
run(0 --live --heartbeat-ms 50 --checkpoint-ms 100 --trace-dir "${W}/live"
    Rodinia api)

# A replay saves no run, so `stages` (the overview plus that save) needs
# a live app.
run(1 replay "${W}" small stages)
if(NOT ERR MATCHES "live app")
  message(FATAL_ERROR "replay stages: stderr:\n${ERR}")
endif()
# The refusal comes before the run is opened: a missing run does not
# turn it into an open failure.
run(1 replay "${W}" missing compare)
if(NOT ERR STREQUAL "compare requires a live app, not replay\n")
  message(FATAL_ERROR "replay compare on a missing run: stderr:\n${ERR}")
endif()

# `push` has no default port.
run(2 push "${F}")
if(NOT ERR STREQUAL "push: --port is required\n${USAGE}")
  message(FATAL_ERROR "push without --port: stderr:\n${ERR}")
endif()

# The legacy positional `trace dump <file> [kind] [max]` reads as its
# flags.
run(0 trace dump "${F}" op 3)
set(positional "${OUT}")
run(0 trace dump "${F}" --kind op --max 3)
if(NOT OUT STREQUAL positional OR positional STREQUAL "")
  message(FATAL_ERROR "trace dump: positional and flag spellings differ\n"
                      "positional:\n${positional}\nflags:\n${OUT}")
endif()

# A pinned footer clock makes synth deterministic.
foreach(i 1 2)
  run(0 synth "${W}/pinned_${i}.dgtrace" --events 3000 --problem-sites 3
      --op-spacing-ns 900 --workload pinned --footer-wall-ms 0)
endforeach()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files
          "${W}/pinned_1.dgtrace" "${W}/pinned_2.dgtrace"
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "two pinned synth runs differ (kept in ${W})")
endif()

# The fleet commands on two small runs of one workload.
set(R "${W}/archive")
file(MAKE_DIRECTORY "${W}/runs")
run(0 synth "${W}/runs/a.dgtrace" --events 2000 --problem-sites 2
    --workload fleet --footer-wall-ms 0)
run(0 synth "${W}/runs/b.dgtrace" --events 2000 --problem-sites 4
    --workload fleet --footer-wall-ms 0)
run(0 archive add "${W}/runs" --root "${R}" --ingest-wall-ms 0)
string(REGEX MATCHALL "archived [0-9a-f]+  fleet " archived "${OUT}")
list(LENGTH archived n)
if(NOT n EQUAL 2)
  message(FATAL_ERROR "archive add: want 2 archived runs\n${OUT}")
endif()
run(0 archive ls "${R}" --json)
string(REGEX MATCHALL "[^\n]+" lines "${OUT}")
list(LENGTH lines n)
if(NOT n EQUAL 2)
  message(FATAL_ERROR "archive ls --json: want 2 lines\n${OUT}")
endif()
foreach(line IN LISTS lines)
  string(JSON workload GET "${line}" workload)
  if(NOT workload STREQUAL "fleet")
    message(FATAL_ERROR "archive ls --json: bad line ${line}")
  endif()
endforeach()
execute_process(COMMAND "${DIOGENES}" regress "${W}" --root "${R}" --json
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT (rc EQUAL 0 OR rc EQUAL 3))
  message(FATAL_ERROR "regress --json: exit ${rc}\n${err}")
endif()
string(JSON reports LENGTH "${out}")
string(JSON workload GET "${out}" 0 workload)
if(NOT reports EQUAL 1 OR NOT workload STREQUAL "fleet")
  message(FATAL_ERROR "regress --json: want one report for fleet\n${out}")
endif()
usage_error(regress "${W}" fleet extra --root "${R}")

file(REMOVE_RECURSE "${WORK_DIR}")
