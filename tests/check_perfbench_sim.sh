#!/usr/bin/env bash
# Pins perfbench's simulated metrics. Runs the four workloads with
# `--seed 1 --seconds 1 --trace 0`, fails if a run exits non-zero (one of its
# ledger, checksum or drain checks failed), and compares each workload's
# simulated results with tests/perfbench_sim_seed1.txt: p50_kcyc, p99_kcyc,
# knee_req_per_mcyc, job_mcyc and failed. A change to host speed alone must
# leave every one of them equal. `attempted` is left out: it counts passes,
# so it follows host speed.
#
# Usage (from anywhere):
#   tests/check_perfbench_sim.sh            # compare with the committed file
#   tests/check_perfbench_sim.sh --update   # rewrite it from this run
#
# perfbench builds its own Release tree under $CARGO_TARGET_DIR (default
# .bench_build in the repository root).
set -euo pipefail
cd "$(dirname "$0")/.."

expected=tests/perfbench_sim_seed1.txt
update=0
case "${1-}" in
  "") ;;
  --update) update=1 ;;
  *)
    echo "usage: $0 [--update]" >&2
    exit 2
    ;;
esac

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
for w in rack_get conn_keepalive store_browse_buy omp_mapreduce; do
  echo "=== perfbench $w ===" >&2
  if ! python3 perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 \
      > "$scratch/$w.out"; then
    echo "FAIL: perfbench $w exited non-zero" >&2
    exit 1
  fi
  python3 - "$w" "$scratch/$w.out" >> "$scratch/actual.txt" <<'EOF'
import json
import sys

workload, path = sys.argv[1], sys.argv[2]
with open(path) as f:
    result = json.loads(f.read().strip().splitlines()[-1])
for name in ("p50_kcyc", "p99_kcyc", "knee_req_per_mcyc", "job_mcyc"):
    print(workload, name, repr(result["metrics"][name]["value"]))
print(workload, "failed", result["failed"])
EOF
done

if [[ $update == 1 ]]; then
  cp "$scratch/actual.txt" "$expected"
  echo "wrote $expected" >&2
  exit 0
fi
if ! diff -u "$expected" "$scratch/actual.txt"; then
  echo "FAIL: perfbench's simulated metrics differ from $expected" >&2
  echo "(a change that moves them on purpose reruns this script with --update)" >&2
  exit 1
fi
echo "ok: every simulated perfbench metric equals $expected" >&2
