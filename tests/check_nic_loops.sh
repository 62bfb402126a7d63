#!/usr/bin/env bash
# Guard against NIC receive loops growing back outside SimNic.
#
# net::SimNic::ServeRx is the one RX service loop: it alone owns the
# interrupt-mitigation policy (poll while busy, park on the interrupt when
# idle, one trap per interrupt wake). Any other file under src/, bench/ or
# examples/ that calls the primitives such a loop is built from (DriverRxPop,
# RxReady, SetInterruptsEnabled, rx_irq) fails this check: run ServeRx with
# a handler instead.
#
# Not checked: perfbench/, whose harness keeps its own timed loop, and
# tests/, where some loops are hand-written on purpose (determinism_test ends
# its loops with a stop flag so the leak-checked suite leaves nothing parked;
# crosswire_test polls every cycle to timestamp arrivals exactly).
#
#   tests/check_nic_loops.sh    # exit 1 and list each offending line
set -euo pipefail
cd "$(dirname "$0")/.."

pattern='\b(DriverRxPop|RxReady|SetInterruptsEnabled|rx_irq)\b'

fail=0
while IFS= read -r file; do
  echo "nic_loops: $file drives a NIC RX queue outside SimNic::ServeRx:" >&2
  grep -nE "$pattern" "$file" >&2
  fail=1
done < <(grep -rlE --include='*.h' --include='*.cc' --include='*.cpp' "$pattern" \
           src bench examples |
         grep -vxE 'src/net/nic\.(h|cc)' | sort)

if [[ $fail == 0 ]]; then
  echo "nic_loops: ok"
fi
exit "$fail"
