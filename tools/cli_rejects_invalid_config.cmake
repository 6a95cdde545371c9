# Runs mstc-sim on configurations runner::validate rejects and requires a
# clean "error: ScenarioConfig.<field>: ..." and exit code 1 from each, under
# the default 5 repeats on a multi-thread pool, so the rejection is thrown
# inside a pool task.
#
#   cmake -DMSTC_SIM=<path to mstc-sim> -P cli_rejects_invalid_config.cmake
set(args_1 --duration inf)
set(expected_1 "ScenarioConfig.duration: must be finite and > 0")
set(args_2 --nodes 0)
set(expected_2 "ScenarioConfig.node_count: the fleet is empty")
foreach(i 1 2)
  execute_process(
    COMMAND "${MSTC_SIM}" ${args_${i}}
    RESULT_VARIABLE code
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
  if(NOT code STREQUAL "1")
    message(FATAL_ERROR "mstc-sim ${args_${i}}: exit '${code}', expected 1; "
                        "stderr:\n${stderr}")
  endif()
  string(FIND "${stderr}" "error: ${expected_${i}}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "mstc-sim ${args_${i}}: stderr lacks "
                        "'error: ${expected_${i}}':\n${stderr}")
  endif()
endforeach()
