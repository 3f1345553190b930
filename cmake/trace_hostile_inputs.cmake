# Hostile trace files through every `confail trace` verb, read from stdin:
# a JSONL line naming the sentinel thread id, and the lines of the old
# private text format (a name-table line for that id, an event line).  Each
# verb must exit 0 (clean) or 1 (findings): never on a signal, an internal
# error or a sanitizer report.
#
# Invoked as:  cmake -DCONFAIL=<confail binary> -DWORK_DIR=<dir>
#                    -P trace_hostile_inputs.cmake
if(NOT DEFINED CONFAIL OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "trace_hostile_inputs: pass -DCONFAIL=<binary> -DWORK_DIR=<dir>")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(far_id_jsonl
  "{\"seq\":0,\"kind\":\"ThreadStart\",\"thread\":4294967295,\"thread_name\":\"x\"}\n")
set(text_name_line "#thread 4294967295 x\n")
set(text_event_line "0 0 ThreadStart -1 0 -1 0\n")
file(WRITE "${WORK_DIR}/far_id.jsonl" "${far_id_jsonl}")
file(WRITE "${WORK_DIR}/text_name.txt" "${text_name_line}")
file(WRITE "${WORK_DIR}/text_event.txt" "${text_event_line}")
file(WRITE "${WORK_DIR}/text_trace.txt" "${text_name_line}${text_event_line}")

set(failures "")
foreach(input far_id.jsonl text_name.txt text_event.txt text_trace.txt)
  foreach(verb render stats validate detect chrome)
    set(args trace ${verb} -)
    if(verb STREQUAL "chrome")
      list(APPEND args "${WORK_DIR}/${input}.chrome.json")
    endif()
    execute_process(COMMAND "${CONFAIL}" ${args}
      INPUT_FILE "${WORK_DIR}/${input}"
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc MATCHES "^[01]$" OR err MATCHES "Sanitizer|runtime error")
      list(APPEND failures "trace ${verb} - < ${input}: exit ${rc}\n${err}")
    endif()
  endforeach()
endforeach()

if(failures)
  string(REPLACE ";" "\n" report "${failures}")
  message(FATAL_ERROR "trace_hostile_inputs:\n${report}")
endif()
message("TRACE HOSTILE INPUTS OK")
