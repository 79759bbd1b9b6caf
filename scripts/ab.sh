#!/bin/sh
# Paired A/B runs of the repository benchmark: the working tree against a
# git revision, alternated so machine drift hits both sides alike.
#
# Usage, from anywhere in the repository:
#   sh scripts/ab.sh REF [WORKLOAD] [PAIRS] [TRACE]
# (`make ab REF=<rev> WORKLOAD=paper PAIRS=10` is the same.) Defaults:
# workload paper, 10 pairs, trace 0 (end-to-end metrics; 1 compares the
# per-layer ledger instead). Every run uses seed 1 and the benchmark's
# 20 s window (BENCHMARK.json's run_seconds).
#
# REF is unpacked with `git archive` into a temporary directory, so no
# worktree or branch is added. Pair i runs `perfbench/run.sh` once on each
# side; odd pairs start with REF, even pairs with the working tree. The
# summary (scripts/abstat) prints, per metric, each side's median and
# quartiles and the number of pairs the working tree won. Everything is
# local: git, the Go toolchain and its build cache, no network.
set -eu

if [ $# -lt 1 ]; then
	sed -n '5,10p' "$0" >&2
	exit 2
fi
ref=$1
workload=${2:-paper}
pairs=${3:-10}
trace=${4:-0}

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"
echo "ab: $workload, $pairs pairs: $(git -C "$root" rev-parse --short "$ref") vs working tree" >&2

# run SIDE DIR BUILD_DIR: one benchmark run, its report appended to SIDE.jsonl.
run() {
	if ! (cd "$2" && CARGO_TARGET_DIR=$3 bash perfbench/run.sh --workload "$workload" \
		--seed 1 --seconds 20 --trace "$trace") >"$tmp/$1.out" 2>&1; then
		echo "ab: a $1 run reported failure:" >&2
		tail -n 5 "$tmp/$1.out" >&2
	fi
	tail -n 1 "$tmp/$1.out" >>"$tmp/$1.jsonl"
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run ref "$tmp/ref" "$tmp/build"
		run change "$root" "$root/.bench_build"
	else
		run change "$root" "$root/.bench_build"
		run ref "$tmp/ref" "$tmp/build"
	fi
	echo "ab: pair $i of $pairs done" >&2
	i=$((i + 1))
done

cd "$root"
go run ./scripts/abstat -benchmark BENCHMARK.json -ref "$tmp/ref.jsonl" -change "$tmp/change.jsonl"
