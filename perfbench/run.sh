#!/usr/bin/env bash
# Builds perfbench from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload score-single --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Every build output, Go cache and
# scratch file stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if [[ ! -f "$here/../go.mod" || ! -d "$here/../internal" ]]; then
  echo "perfbench: $here/.. is not a targad checkout (no go.mod and internal/)" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local CGO_ENABLED=0
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out/work" "$@"
