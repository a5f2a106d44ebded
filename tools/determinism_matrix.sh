#!/bin/sh
# Byte-determinism matrix: every output that promises to be independent
# of compile-level (--jobs) and scan-level (--sched-jobs) parallelism is
# produced under each setting and compared with cmp.
#
#   - phc compile --json --normalize: examples/*.pauli x {default, do,
#     phoenix} schedules x --sched-jobs {1, 4, 8}
#   - phc batch (stdout and --json report): examples/*.pauli x
#     {default, phoenix} x --jobs {1, 2, 4}
#   - bench history record (perf counter rows): the ft suite at
#     --jobs 1 / --jobs 4 / --sched-jobs 8, the sc suite (Manhattan-65
#     routing) at --jobs 1 / 2, and the scale suite at --sched-jobs
#     1 / 8.  Rand-256 of the scale suite dispatches parallel scans, so
#     that pair also proves a dispatch leaves the recorded allocation
#     words unchanged.
#
# Usage: tools/determinism_matrix.sh [OUT_DIR]   (default: determinism-out)
#
# Outputs land in OUT_DIR; OUT_DIR/perf_j1.csv (ft), perf_sc_j1.csv (sc)
# and perf_scale_sj1.csv (scale) are the three recordings the regression
# gate checks (`bench history gate --candidate FILE`).  Exit 1 on the
# first pair that differs.  Takes about 100 s on two cores.

set -eu
cd "$(dirname "$0")/.."

out=${1:-determinism-out}
mkdir -p "$out"
dune build bin/phc.exe bench/main.exe
PHC=_build/default/bin/phc.exe
BENCH=_build/default/bench/main.exe

for f in examples/*.pauli; do
  name=$(basename "$f" .pauli)
  for s in default do phoenix; do
    # unquoted below on purpose: empty for the default schedule
    if [ "$s" = default ]; then flag=; else flag="--schedule $s"; fi
    for j in 1 4 8; do
      "$PHC" compile "$f" $flag --json --normalize \
        --sched-jobs "$j" > "$out/compile-$name-$s-sj$j.json"
    done
    cmp "$out/compile-$name-$s-sj1.json" "$out/compile-$name-$s-sj4.json"
    cmp "$out/compile-$name-$s-sj1.json" "$out/compile-$name-$s-sj8.json"
  done
done

for s in default phoenix; do
  if [ "$s" = default ]; then flag=; else flag="--schedule $s"; fi
  for j in 1 2 4; do
    "$PHC" batch examples/*.pauli $flag --jobs "$j" \
      --json "$out/batch-$s-j$j.json" > "$out/batch-$s-j$j.txt"
  done
  for j in 2 4; do
    cmp "$out/batch-$s-j1.txt" "$out/batch-$s-j$j.txt"
    cmp "$out/batch-$s-j1.json" "$out/batch-$s-j$j.json"
  done
done

# `history record` appends, so every db starts empty
record() {
  db=$out/$1
  shift
  rm -f "$db"
  "$BENCH" history record --commit ci --db "$db" "$@" > /dev/null
}
record perf_j1.csv --suite ft --jobs 1
record perf_j4.csv --suite ft --jobs 4
record perf_sj8.csv --suite ft --sched-jobs 8
cmp "$out/perf_j1.csv" "$out/perf_j4.csv"
cmp "$out/perf_j1.csv" "$out/perf_sj8.csv"
record perf_sc_j1.csv --suite sc --jobs 1
record perf_sc_j2.csv --suite sc --jobs 2
cmp "$out/perf_sc_j1.csv" "$out/perf_sc_j2.csv"
record perf_scale_sj1.csv --suite scale --sched-jobs 1
record perf_scale_sj8.csv --suite scale --sched-jobs 8
cmp "$out/perf_scale_sj1.csv" "$out/perf_scale_sj8.csv"

echo "determinism matrix: all outputs byte-identical ($out)"
