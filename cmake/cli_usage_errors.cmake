# Flags a verb cannot honour must be usage errors (exit 2), never a silent
# truncation or a silently dropped flag.  Two groups:
#
#   numbers   malformed or out-of-range numeric values in every verb that
#             takes them (explore, inject, submit, fuzz, ingest, worker,
#             trace), and a removed flag (explore --snapshot-budget-mb),
#             which is an unknown option whatever its value
#   campaign  `inject --campaign` with a single-plan-only flag, and
#             single-plan `inject` with a campaign-only flag; a campaign
#             (inject --campaign, or submit by flags or --job) whose grid
#             repeats a value
#
# No rejected case may write its output file (`${WORK_DIR}/out*`) or
# anything on stdout.
#
# Invoked as:  cmake -DCONFAIL=<confail binary> -DWORK_DIR=<dir>
#                    -DGROUP=numbers|campaign -P cli_usage_errors.cmake
if(NOT DEFINED CONFAIL OR NOT DEFINED WORK_DIR OR NOT DEFINED GROUP)
  message(FATAL_ERROR
    "cli_usage_errors: pass -DCONFAIL=<binary> -DWORK_DIR=<dir> -DGROUP=<g>")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
file(WRITE "${WORK_DIR}/empty" "")

# One case per list entry; `|` separates arguments.
if(GROUP STREQUAL "numbers")
  set(cases
    "explore|--scenario|fig2|--max-runs|12abc"
    "explore|--scenario|fig2|--max-depth|-1|--max-runs|50"
    "explore|--scenario|fig2|--max-runs|+5"
    "explore|--scenario|fig2|--max-runs|18446744073709551616"
    "explore|--scenario|fig2|--workers|"
    "explore|--scenario|fig2|--snapshot-budget-mb|1x"
    "explore|--scenario|fig2|--snapshot-budget-mb|18446744073709551615"
    "explore|--scenario|fig2|--snapshot-budget-mb|64"
    "inject|--campaign|--max-runs|5x"
    "inject|--scenario|fig2|--class|FF-T5|--max-depth|4.5"
    "submit|--root|${WORK_DIR}/spool|--scenario|fig2|--class|FF-T5|--max-steps|-3"
    "fuzz|--seeds|3x"
    "fuzz|--seeds|0..4x"
    "ingest|--idle-stop-ms|4294967296|${WORK_DIR}/empty"
    "worker|--job|${WORK_DIR}/empty|--shard|1x|--out|${WORK_DIR}/out-shard"
    "trace|validate|${WORK_DIR}/empty|7x")
elseif(GROUP STREQUAL "campaign")
  set(cases "")
  foreach(flag --json-out --findings-out --sarif-out)
    list(APPEND cases
      "inject|--campaign|--max-runs|5|${flag}|${WORK_DIR}/out${flag}")
  endforeach()
  foreach(pair --findings-cap=5 --scenario=fig2 --class=FF-T5 --monitor=m
               --victim=t --after=1 --count=1)
    string(REPLACE "=" "|" pair "${pair}")
    list(APPEND cases "inject|--campaign|--max-runs|5|${pair}")
  endforeach()
  foreach(pair --out=${WORK_DIR}/out--out --no-controls)
    string(REPLACE "=" "|" pair "${pair}")
    list(APPEND cases
      "inject|--scenario|fig2|--class|FF-T5|--max-runs|5|${pair}")
  endforeach()
  file(WRITE "${WORK_DIR}/repeated.json"
    "{\"schema\": \"confail.job.v1\", \"name\": \"r\", "
    "\"reductions\": [\"none\", \"none\"]}")
  list(APPEND cases
    "inject|--campaign|--reduction|none|--reduction|none|--out|${WORK_DIR}/out-matrix"
    "submit|--root|${WORK_DIR}/out-spool|--scenario|fig2|--scenario|fig2"
    "submit|--root|${WORK_DIR}/out-spool|--job|${WORK_DIR}/repeated.json")
else()
  message(FATAL_ERROR "cli_usage_errors: unknown GROUP '${GROUP}'")
endif()

set(failures "")
foreach(case IN LISTS cases)
  string(REPLACE "|" ";" args "${case}")
  execute_process(COMMAND "${CONFAIL}" ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2" OR NOT out STREQUAL "" OR
     err MATCHES "Sanitizer|runtime error")
    string(REPLACE "|" " " shown "${case}")
    list(APPEND failures "confail ${shown}: exit ${rc}\n${out}${err}")
  endif()
endforeach()
file(GLOB written "${WORK_DIR}/out*")
if(written)
  list(APPEND failures "a rejected case wrote ${written}")
endif()

if(failures)
  string(REPLACE ";" "\n" report "${failures}")
  message(FATAL_ERROR "cli_usage_errors (${GROUP}):\n${report}")
endif()
message("CLI USAGE ERRORS OK")
