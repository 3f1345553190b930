# The one-shot `confail worker --job F --shard N --out F` and the daemon's
# persistent workers run the same code: for the CLI smoke job (the one
# serve_cli_roundtrip drains), every shard the one-shot verb writes must
# match what each pool landed, sidecar byte for byte and header byte for
# byte once its `"wall_ms": <n>` timings are masked.  Both pools are
# checked: `confail serve` with its subprocess workers and with
# --in-process.
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

# A shard header's text with its timings masked.
function(masked_header path var)
  file(READ "${path}" text)
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
  set(shards "${root}/jobs/${id}/shards")
  file(GLOB headers "${shards}/shard-*.json")
  if(NOT headers)
    list(APPEND failures "${pool}: the pool landed no shard")
  endif()
  foreach(header IN LISTS headers)
    get_filename_component(name "${header}" NAME)
    string(REGEX REPLACE "^shard-0*([0-9]+)\\.json$" "\\1" index "${name}")
    set(one "${WORK_DIR}/one-shot/${pool}-${name}")
    run_or_fail("worker --shard ${index}" "${CONFAIL}" worker
      --job "${root}/jobs/${id}/job.json" --shard ${index} --out "${one}")
    string(REGEX REPLACE "\\.json$" ".events.jsonl" sidecar "${header}")
    string(REGEX REPLACE "\\.json$" ".events.jsonl" oneSidecar "${one}")
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
      "${sidecar}" "${oneSidecar}" RESULT_VARIABLE differ)
    if(NOT differ STREQUAL "0")
      list(APPEND failures "${pool}: sidecar of shard ${index} differs")
    endif()
    masked_header("${header}" landed)
    masked_header("${one}" oneShot)
    if(NOT landed STREQUAL oneShot)
      list(APPEND failures "${pool}: header of shard ${index} differs")
    endif()
    math(EXPR checked "${checked} + 1")
  endforeach()
endforeach()

if(failures)
  string(REPLACE ";" "\n" report "${failures}")
  message(FATAL_ERROR "serve_worker_verb:\n${report}")
endif()
message("WORKER VERB MATCHES POOL (${checked} shards)")
