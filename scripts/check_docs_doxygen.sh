#!/usr/bin/env bash
# Documentation gate, API docs: build the Doxygen docs and fail on any
# warning (the Doxyfile sets WARN_IF_UNDOCUMENTED). Exits 77 (CTest
# SKIP_RETURN_CODE) when doxygen is not installed, so minimal
# containers report SKIPPED; the flag inventory is the separate
# `check_docs_flags` entry and runs everywhere.
#
# Registered as the `check_docs_doxygen` CTest entry.
set -u

cd "$(dirname "$0")/.."

if ! command -v doxygen >/dev/null 2>&1; then
    echo "check_docs_doxygen: doxygen not installed; skipping" >&2
    exit 77
fi

log=$(mktemp)
trap 'rm -f "$log"' EXIT

if ! doxygen Doxyfile >/dev/null 2>"$log"; then
    echo "check_docs_doxygen: doxygen failed:" >&2
    cat "$log" >&2
    exit 1
fi

if [ -s "$log" ]; then
    echo "check_docs_doxygen: doxygen warnings:" >&2
    cat "$log" >&2
    exit 1
fi

echo "check_docs_doxygen: doxygen clean"
