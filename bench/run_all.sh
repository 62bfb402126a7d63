#!/usr/bin/env bash
# Builds every benchmark and regenerates bench_output.txt — the transcript
# EXPERIMENTS.md quotes. The paper benches are deterministic (simulated
# cycles), so the transcript is reproducible bit-for-bit; microbench measures
# host wall-time and is appended last, clearly separated.
#
#   bench/run_all.sh              # full transcript into bench_output.txt
#   SKIP_MICROBENCH=1 bench/run_all.sh   # deterministic part only
#   bench/run_all.sh --threads=4  # transcript, then re-run the golden gate
#                                 # at 4 host threads: every bench must match
#                                 # its 1-thread golden byte-for-byte
#   bench/run_all.sh --machines=8 # forward a rack size to the benches that
#                                 # take one (bench_util.h ParseMachinesFlag)
set -euo pipefail
cd "$(dirname "$0")/.."

THREADS_PASS=""
MACHINES_PASS=""
for arg in "$@"; do
  case "$arg" in
    --threads=*) THREADS_PASS="${arg#--threads=}" ;;
    --machines=*) MACHINES_PASS="${arg#--machines=}" ;;
    *) echo "run_all.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j

OUT=bench_output.txt
: > "$OUT"

# Deterministic paper benches, in roughly the paper's order, then the
# fault-mode entries: the golden list.
source bench/golden_benches.sh
# Benches that understand --machines=N (rack/topology size); everything else
# simulates a fixed machine and would reject the flag.
MACHINES_BENCHES=" rack_serving "
for entry in "${GOLDEN_BENCHES[@]}"; do
  read -r -a argv <<< "$entry"
  if [[ -n "$MACHINES_PASS" && "$MACHINES_BENCHES" == *" ${argv[0]} "* ]]; then
    argv+=("--machines=$MACHINES_PASS")
  fi
  echo "--- $entry" | tee -a "$OUT"
  ./build/bench/"${argv[0]}" "${argv[@]:1}" | tee -a "$OUT"
done

if [[ "${SKIP_MICROBENCH:-0}" != "1" ]]; then
  echo "--- microbench (host wall-time; not deterministic)" | tee -a "$OUT"
  ./build/bench/microbench | tee -a "$OUT"
fi

echo "transcript written to $OUT"

# --threads=N pass: the parallel engine promises that host thread count can
# never change a schedule. Prove it by re-running every golden bench with
# --threads=N and byte-diffing against the 1-thread goldens.
if [[ -n "$THREADS_PASS" ]]; then
  echo "--- golden gate at --threads=$THREADS_PASS (vs 1-thread goldens)"
  THREADS="$THREADS_PASS" bench/check_golden.sh
fi
