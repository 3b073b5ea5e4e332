#!/usr/bin/env bash
# Build hlpower and the benchmark from source, then run the benchmark from
# the root of the source tree.
#
#   bash perfbench/run.sh --workload cold-mc --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steadiness 10 --seconds 20
#
# Build output goes to stderr; the benchmark's last stdout line is its JSON
# result. A failed build exits non-zero without printing a result.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bin/hlpower.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
