# The one-shot `confail worker --job F --shard N --out F` and the daemon's
# persistent workers run the same code: for the CLI smoke job (the one
# serve_cli_roundtrip drains), every shard the one-shot verb writes must
# match what each pool landed.  The verb's file is the shard's header line,
# then its events; the pool's landing is the shard's journal line and its
# segment of the job's events.jsonl.  The header must equal the journal
# line less its `events_offset`, once the `"wall_ms": <n>` timings of both
# are masked, and the events must equal the feed segment byte for byte.
# Both pools are checked: `confail serve` with its subprocess workers and
# with --in-process.
#
# Invoked as:  cmake -DCONFAIL=<confail binary> -DWORK_DIR=<dir>
#                    -P serve_worker_verb.cmake
if(NOT DEFINED CONFAIL OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "serve_worker_verb: pass -DCONFAIL=<binary> -DWORK_DIR=<dir>")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}/one-shot")

function(run_or_fail what)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE err OUTPUT_STRIP_TRAILING_WHITESPACE)
  if(NOT rc STREQUAL "0" OR err MATCHES "Sanitizer|runtime error")
    message(FATAL_ERROR "serve_worker_verb: ${what} exited ${rc}\n${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
endfunction()

# A header's text with its timings masked.
function(masked text var)
  string(REGEX REPLACE "\"wall_ms\": [-+.0-9eE]+" "\"wall_ms\": _" text
    "${text}")
  set(${var} "${text}" PARENT_SCOPE)
endfunction()

set(failures "")
set(checked 0)
foreach(pool subprocess in-process)
  set(root "${WORK_DIR}/${pool}")
  set(flags "")
  if(pool STREQUAL "in-process")
    set(flags --in-process)
  endif()
  run_or_fail("submit" "${CONFAIL}" submit --root "${root}"
    --name smoke --scenario fig2 --max-runs 80)
  set(id "${out}")
  run_or_fail("serve (${pool})" "${CONFAIL}" serve --root "${root}"
    --pool 2 ${flags} --exit-when-idle)
  set(job "${root}/jobs/${id}")
  file(STRINGS "${job}/journal.jsonl" lines)
  if(NOT lines)
    list(APPEND failures "${pool}: the pool landed no shard")
  endif()
  set(seen "")
  foreach(line IN LISTS lines)
    string(JSON index GET "${line}" index)
    string(JSON offset GET "${line}" events_offset)
    string(JSON bytes GET "${line}" events_bytes)
    list(APPEND seen ${index})
    set(one "${WORK_DIR}/one-shot/${pool}-${index}.json")
    run_or_fail("worker --shard ${index}" "${CONFAIL}" worker
      --job "${job}/job.json" --shard ${index} --out "${one}")
    file(READ "${one}" oneShot)
    string(FIND "${oneShot}" "\n" eol)
    string(SUBSTRING "${oneShot}" 0 ${eol} oneHeader)
    math(EXPR from "${eol} + 1")
    string(SUBSTRING "${oneShot}" ${from} -1 oneEvents)
    string(REGEX REPLACE ", \"events_offset\": [0-9]+" "" landed "${line}")
    masked("${landed}" landed)
    masked("${oneHeader}" oneHeader)
    if(NOT landed STREQUAL oneHeader)
      list(APPEND failures "${pool}: header of shard ${index} differs")
    endif()
    string(LENGTH "${oneEvents}" oneBytes)
    if(bytes EQUAL 0)
      set(segment "")
    else()
      file(READ "${job}/events.jsonl" segment OFFSET ${offset} LIMIT ${bytes})
    endif()
    if(NOT oneBytes EQUAL bytes OR NOT segment STREQUAL oneEvents)
      list(APPEND failures "${pool}: events of shard ${index} differ")
    endif()
    math(EXPR checked "${checked} + 1")
  endforeach()
  list(LENGTH seen landedShards)
  list(REMOVE_DUPLICATES seen)
  list(LENGTH seen distinctShards)
  if(NOT landedShards EQUAL distinctShards)
    list(APPEND failures "${pool}: a shard has two journal lines")
  endif()
endforeach()

if(failures)
  string(REPLACE ";" "\n" report "${failures}")
  message(FATAL_ERROR "serve_worker_verb:\n${report}")
endif()
message("WORKER VERB MATCHES POOL (${checked} shards)")
