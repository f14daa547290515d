# Golden-fixture check: reruns `fastfit study LU --ranks 32 --trials 8
# --no-ml` and requires its JSON report, its journal and its
# fastfit_trials_total metric lines to match the committed fixtures byte for
# byte.
#
#   cmake -DFASTFIT=<fastfit binary> -DGOLDEN_DIR=<fixture dir>
#         -DWORK_DIR=<scratch dir> [-DUPDATE=1] -P check_golden.cmake
#
# UPDATE=1 rewrites the fixtures from the fresh run instead of comparing;
# use it only for a change that is meant to alter study results, and say
# why in the commit.

foreach(var FASTFIT GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_golden.cmake: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

execute_process(
  COMMAND "${FASTFIT}" study LU --ranks 32 --trials 8 --no-ml
          --json report.json --journal journal.jsonl
          --metrics-out metrics.prom
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE stderr)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "fastfit study exited with ${status}:\n${stderr}")
endif()

file(STRINGS "${WORK_DIR}/metrics.prom" totals REGEX "^fastfit_trials_total")
list(JOIN totals "\n" totals)
file(WRITE "${WORK_DIR}/trials_total.txt" "${totals}\n")

foreach(name report.json journal.jsonl trials_total.txt)
  if(UPDATE)
    file(COPY "${WORK_DIR}/${name}" DESTINATION "${GOLDEN_DIR}")
    continue()
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${GOLDEN_DIR}/${name}" "${WORK_DIR}/${name}"
    RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR
            "${name} differs from the golden fixture:\n"
            "  want ${GOLDEN_DIR}/${name}\n"
            "  got  ${WORK_DIR}/${name}")
  endif()
endforeach()
