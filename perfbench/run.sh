#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload rsa-kx --seed 1 --seconds 20 --trace 0
#
# Every Go cache and the toolchain's home directory live under .bench_build,
# so building and running write nothing outside the checkout. The build
# fails (and the script exits non-zero) when the phiopenssl sources are not
# next to perfbench/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off
commit=unknown
if [ -e "$root/.git" ] && command -v git >/dev/null; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
PERFBENCH_COMMIT=$commit exec "$out/perfbench" "$@"
