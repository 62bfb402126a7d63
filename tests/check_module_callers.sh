#!/usr/bin/env bash
# Guard against modules that nothing calls.
#
# Every header under src/ must be #included by some file under src/, bench/,
# perfbench/ or examples/ other than its own .cc. Tests do not count as
# callers: a module that only its tests use drives no bench, golden or
# perfbench number. Examples do count, because each one is a ctest that must
# run to completion; that is why src/idc/ (the section 4.6 name service and
# typed stubs) and src/mm/vspace.* (section 4.7 user-level page tables),
# which only examples and tests call, pass.
#
#   tests/check_module_callers.sh    # exit 1 and name each uncalled header
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while IFS= read -r header; do
  rel=${header#src/}
  callers=$(grep -rlF --include='*.h' --include='*.cc' --include='*.cpp' \
              "#include \"$rel\"" src bench perfbench examples |
            grep -vx "${header%.h}.cc" || true)
  if [[ -z $callers ]]; then
    echo "module_callers: $rel is included by nothing in src/, bench/," \
         "perfbench/ or examples/ but its own .cc" >&2
    fail=1
  fi
done < <(find src -name '*.h' | sort)

if [[ $fail == 0 ]]; then
  echo "module_callers: ok"
fi
exit "$fail"
