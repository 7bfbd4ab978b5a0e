#!/usr/bin/env bash
# Builds wdserve and the wdload load generator from the checkout in
# the current directory, then runs wdload with the given arguments:
#
#   bash perfbench/run.sh --workload lookup|scan|live --seed N --seconds S --trace 0|1
#
# Everything built or generated stays under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout, Go's build cache included.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/wdserve" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "run.sh: run from the repository root (need go.mod, cmd/wdserve and perfbench/)" >&2
  exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out="$root/$out"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOTELEMETRY=off

go build -o "$out/bin/wdserve" ./cmd/wdserve
(cd "$root/perfbench" && go build -o "$out/bin/wdload" .)

exec "$out/bin/wdload" -root "$root" -bin "$out/bin" -work "$out" "$@"
