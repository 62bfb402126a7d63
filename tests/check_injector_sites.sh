#!/usr/bin/env bash
# Guard against fault-injector gates growing back.
#
# Outside src/fault/, only two kinds of file may ask fault::Injector::active():
#   - the four injection sites, the models that inject faults (IPI fabric,
#     coherence links, NIC rings, cross-machine wires). machine.cc also
#     answers "has this core halted?" for everyone (hw::Machine::Halted);
#   - src/recover/config.h, which answers "is recovery armed, and how long
#     may a wait last?" (recover::Armed, recover::Bound).
# Any other file under src/ that names it fails this check: ask
# Machine::Halted or recover::Armed/Bound instead.
#
#   tests/check_injector_sites.sh    # exit 1 and list each offending line
set -euo pipefail
cd "$(dirname "$0")/.."

allowed=(
  src/hw/coherence.cc
  src/hw/machine.cc
  src/net/crosswire.cc
  src/net/nic.cc
  src/recover/config.h
)

fail=0
while IFS= read -r file; do
  if [[ " ${allowed[*]} " != *" $file "* ]]; then
    echo "injector_sites: $file asks fault::Injector::active() directly:" >&2
    grep -n 'Injector::active()' "$file" >&2
    fail=1
  fi
done < <(grep -rl --include='*.h' --include='*.cc' 'Injector::active()' src |
           grep -v '^src/fault/' | sort)

if [[ $fail == 0 ]]; then
  echo "injector_sites: ok"
fi
exit "$fail"
