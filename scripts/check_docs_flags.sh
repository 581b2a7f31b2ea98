#!/usr/bin/env bash
# Documentation gate, flag inventory: every option a binary's
# generated `--help` lists must appear somewhere in the markdown docs
# (README.md, EXPERIMENTS.md, DESIGN.md, docs/*.md). The inventory
# comes from the option tables themselves, so a flag added or renamed
# in code without a doc update fails here. No dependencies beyond the
# binaries.
#
# Usage: check_docs_flags.sh <binary>...
# Registered as the `check_docs_flags` CTest entry with every
# flag-taking binary as an argument.
set -u

if [ $# -eq 0 ]; then
    echo "usage: $0 <binary>..." >&2
    exit 2
fi

flags=""
for bin in "$@"; do
    if ! help=$("$bin" --help); then
        echo "check_docs_flags: $bin --help failed" >&2
        exit 1
    fi
    # Option rows are indented two spaces and start with "--".
    found=$(printf '%s\n' "$help" \
        | sed -n 's/^  \(--[a-z][a-z0-9-]*\).*/\1/p')
    if [ -z "$found" ]; then
        echo "check_docs_flags: no options in $bin --help" >&2
        exit 1
    fi
    flags="$flags $found"
done
flags=$(printf '%s\n' $flags | sort -u)

cd "$(dirname "$0")/.."
docs="README.md EXPERIMENTS.md DESIGN.md docs/*.md"
missing=0
for flag in $flags; do
    if ! grep -qE -- "$flag(\\b|$)" $docs; then
        echo "check_docs_flags: flag $flag is accepted but absent" \
             "from the docs ($docs)" >&2
        missing=$((missing + 1))
    fi
done
if [ "$missing" -gt 0 ]; then
    echo "check_docs_flags: $missing undocumented flag(s)" >&2
    exit 1
fi
echo "check_docs_flags: flag inventory clean" \
     "($(echo "$flags" | wc -l) flags from $# binaries)"
