# src/ingest resolves its allocation audit through ${CMAKE_SOURCE_DIR}, which
# is this directory when the library is built as part of cfbench; forward to
# the repository's script so the audit still runs.
include(${CMAKE_CURRENT_LIST_DIR}/../../cmake/alloc_audit.cmake)
