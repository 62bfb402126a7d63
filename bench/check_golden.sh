#!/usr/bin/env bash
# Golden-output regression gate.
#
# Every paper bench is deterministic (simulated cycles, seeded RNG), so its
# stdout must reproduce bench/golden/<bench>.txt byte-for-byte. Any drift —
# an intended recalibration or an accidental perturbation of the event
# schedule — fails this gate and must be reviewed; refresh the goldens
# explicitly once the new numbers are understood:
#
#   bench/check_golden.sh             # verify; exit 1 on any byte difference
#   bench/check_golden.sh --update    # rewrite goldens from a fresh run
#
# BUILD_DIR selects the build tree (default: build). Binaries must already be
# built; this script never compiles.
#
# The entries come from bench/golden_benches.sh. An entry is a bench name
# optionally followed by its arguments; its golden file is named after both
# ("sec54_failover --quick --chaos-seed=7" ->
# bench/golden/sec54_failover_quick_chaos-seed-7.txt).
#
# THREADS=<n> appends --threads=<n> to every bench invocation. The goldens
# are recorded at one host thread; re-running the gate with THREADS=4 proves
# the parallel engine's promise that host thread count never changes a
# schedule (sim/parallel.h). Goldens are never updated at THREADS != 1.
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
GOLDEN_DIR=bench/golden
THREADS="${THREADS:-1}"
extra_args=()
if [[ "$THREADS" != "1" ]]; then
  extra_args+=("--threads=$THREADS")
fi

source bench/golden_benches.sh

update=0
if [[ "${1:-}" == "--update" ]]; then
  update=1
  mkdir -p "$GOLDEN_DIR"
fi

fail=0
for entry in "${GOLDEN_BENCHES[@]}"; do
  read -r -a argv <<< "$entry"
  bin="$BUILD_DIR/bench/${argv[0]}"
  args=("${argv[@]:1}")
  b="${entry// --/_}"
  b="${b//=/-}"
  if [[ ! -x "$bin" ]]; then
    echo "check_golden: missing binary $bin (build first)" >&2
    exit 2
  fi
  if [[ $update == 1 ]]; then
    if [[ "$THREADS" != "1" ]]; then
      echo "check_golden: refusing --update with THREADS=$THREADS (goldens are recorded at 1 thread)" >&2
      exit 2
    fi
    "$bin" ${args[@]+"${args[@]}"} > "$GOLDEN_DIR/$b.txt"
    echo "updated: $b"
    continue
  fi
  if [[ ! -f "$GOLDEN_DIR/$b.txt" ]]; then
    echo "GOLDEN MISSING: $GOLDEN_DIR/$b.txt (run with --update)" >&2
    fail=1
    continue
  fi
  if diff -u "$GOLDEN_DIR/$b.txt" \
      <("$bin" ${args[@]+"${args[@]}"} ${extra_args[@]+"${extra_args[@]}"}) \
      > /tmp/golden_diff_$b; then
    echo "ok: $b"
  else
    echo "GOLDEN MISMATCH: $b" >&2
    cat /tmp/golden_diff_$b >&2
    fail=1
  fi
done

if [[ $fail != 0 ]]; then
  echo "check_golden: FAILED — output drifted from bench/golden/" >&2
fi
exit $fail
