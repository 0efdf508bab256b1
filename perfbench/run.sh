#!/usr/bin/env bash
# Builds the macro benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload ao-sheet-8x8 --seed 1 --seconds 30 --trace 0
# Build output goes to stderr so the last line of stdout stays the result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/macro.exe 1>&2
exec ./_build/default/perfbench/macro.exe "$@"
