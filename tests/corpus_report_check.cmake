# Byte-compares a fresh `detcol suite --spec=corpus/corpus.spec` run with
# the committed corpus/corpus_report.json, after normalizing host_cpus (the
# one host-dependent field). Run as
#
#   cmake -DDETCOL=<detcol binary> -DSOURCE_DIR=<repo root> \
#         -DOUT=<scratch report path> -P tests/corpus_report_check.cmake
#
# The spec names its graphs by repo-relative paths, so the suite runs from
# SOURCE_DIR.
foreach(var DETCOL SOURCE_DIR OUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "corpus_report_check: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE "${OUT}")
execute_process(
  COMMAND "${DETCOL}" suite --spec=corpus/corpus.spec "--out=${OUT}" --quiet
  WORKING_DIRECTORY "${SOURCE_DIR}"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "detcol suite exited with ${rc}")
endif()

function(read_normalized path out_var)
  file(READ "${path}" text)
  string(REGEX REPLACE "\"host_cpus\":[0-9]+" "\"host_cpus\":0" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()

read_normalized("${OUT}" fresh)
read_normalized("${SOURCE_DIR}/corpus/corpus_report.json" committed)
if(NOT fresh STREQUAL committed)
  message(FATAL_ERROR "suite report ${OUT} differs from the committed "
                      "corpus/corpus_report.json (host_cpus normalized)")
endif()
