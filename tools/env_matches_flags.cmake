# Checks that a study knob set through its environment variable gives the
# same report as the knob's flag: FASTFIT_SEED=7 against --seed 7, and
# NUM_INJ=2 against --trials 2.
#
#   cmake -DFASTFIT=<fastfit binary> -DWORK_DIR=<scratch dir>
#         -P env_matches_flags.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(study "${FASTFIT}" study EP --ranks 4 --no-ml)

function(run_study name)
  execute_process(COMMAND ${ARGN} --json "${WORK_DIR}/${name}.json"
                  OUTPUT_QUIET RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${name}: fastfit study exited with status ${status}")
  endif()
endfunction()

function(expect_same a b)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                          "${WORK_DIR}/${a}.json" "${WORK_DIR}/${b}.json"
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "${a}.json and ${b}.json differ")
  endif()
endfunction()

run_study(seed_flag ${study} --trials 3 --seed 7)
run_study(seed_env ${CMAKE_COMMAND} -E env FASTFIT_SEED=7 ${study} --trials 3)
expect_same(seed_flag seed_env)

run_study(trials_flag ${study} --trials 2)
run_study(trials_env ${CMAKE_COMMAND} -E env NUM_INJ=2 ${study})
expect_same(trials_flag trials_env)
