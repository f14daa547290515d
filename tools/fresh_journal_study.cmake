# Runs the journal-creating CLI study after deleting any journal a previous
# run left behind, so the create run passes however often ctest repeats it
# (the cleanup fixture runs only once per ctest invocation).
#
#   cmake -DFASTFIT=<fastfit binary> -DJOURNAL=<journal file>
#         -P fresh_journal_study.cmake
file(REMOVE "${JOURNAL}")
execute_process(
  COMMAND "${FASTFIT}" study EP --ranks 4 --trials 3 --no-ml
          --journal "${JOURNAL}"
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "fastfit study exited with status ${status}")
endif()
