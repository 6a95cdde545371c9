# Runs a CLI front end on arguments it must reject (a configuration its
# validate() refuses, or a malformed number) and requires exit code 1 and a
# clean "error: <expected>" on stderr from each.
#
#   cmake -DCLI=<binary> "-DCASES=<case>[|<case>...]" -P cli_rejects_invalid_config.cmake
#
# where each <case> is "<arguments>=><expected stderr text>", for example
#   "--nodes 0=>ScenarioConfig.node_count: the fleet is empty".
string(REPLACE "|" ";" cases "${CASES}")
foreach(case IN LISTS cases)
  string(FIND "${case}" "=>" split)
  if(split EQUAL -1)
    message(FATAL_ERROR "case '${case}' lacks '=>'")
  endif()
  string(SUBSTRING "${case}" 0 ${split} command_line)
  math(EXPR split "${split} + 2")
  string(SUBSTRING "${case}" ${split} -1 expected)
  separate_arguments(arguments UNIX_COMMAND "${command_line}")
  execute_process(
    COMMAND "${CLI}" ${arguments}
    RESULT_VARIABLE code
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
  if(NOT code STREQUAL "1")
    message(FATAL_ERROR "${CLI} ${command_line}: exit '${code}', expected 1; "
                        "stderr:\n${stderr}")
  endif()
  string(FIND "${stderr}" "error: ${expected}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "${CLI} ${command_line}: stderr lacks "
                        "'error: ${expected}':\n${stderr}")
  endif()
endforeach()
