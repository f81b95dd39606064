#!/usr/bin/env bash
# Prints the two Rust line counts CHANGES.md records for each change, over
# the files git tracks in the checkout it runs in:
#   tracked   every tracked .rs file outside perfbench/
#   non-test  the same minus integration tests and benches, and minus
#             every #[cfg(test)] module, nested ones included; a
#             #[cfg(test)] on anything but a `mod` line is counted
#
#   crates/bench/size_counts.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

echo "tracked $(git ls-files '*.rs' | grep -v '^perfbench/' | xargs cat | wc -l)"
echo "non-test $(git ls-files '*.rs' | grep -v '^perfbench/' | grep -v -e '^tests/' -e '/tests/' -e '/benches/' \
  | xargs awk 'FNR==1{skip=0;held=0} skip{if($0==ind "}")skip=0; next}
      held{held=0; if(index($0,ind "mod ")==1){skip=($0!~/;$/); next} n++}
      /^ *#\[cfg\(test\)\]$/{held=1; ind=$0; sub(/#.*/,"",ind); next} {n++} END{print n}')"
