#!/bin/sh
# Builds the benchmark from source with dune, then runs it with the given
# arguments (see main.ml). Run from the root of the repository:
#   sh perfbench/run.sh --workload tasky-oltp --seed 1 --seconds 10 --trace 0
# The shared dune cache is off, so building writes only under _build/.
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
