#!/usr/bin/env bash
# Reachability census: which exported library functions does no shipped
# binary contain?
#
#   tools/reachability.sh [BUILD_DIR]     (default: build-reach)
#
# Builds every examples/ and bench/ executable, plus perfbench's prm_bench
# (through `cmake -S perfbench`), as a Release build with
# -ffunction-sections and --gc-sections, so each binary keeps only the
# functions it can reach. Then, for each libprm_*.a, it prints the global
# functions the library defines that none of those binaries defines.
#
# Caveat: a function the compiler inlined into every caller within its own
# translation unit has no out-of-line copy left in any binary, so it is
# listed although it runs. The report therefore names candidates only;
# deleting a candidate and building every target (tests included) is the
# proof. This is a report, not a gate: it always exits 0 once it has built.
set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
OUT=$(mkdir -p "${1:-build-reach}" && cd "${1:-build-reach}" && pwd)
FLAGS=(-DCMAKE_BUILD_TYPE=Release
       "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

cmake -S "$ROOT" -B "$OUT/root" -DPRM_BUILD_TESTS=OFF "${FLAGS[@]}" > /dev/null
cmake --build "$OUT/root" -j "$(nproc)" > /dev/null
cmake -S "$ROOT/perfbench" -B "$OUT/perfbench" "${FLAGS[@]}" > /dev/null
cmake --build "$OUT/perfbench" -j "$(nproc)" --target prm_bench > /dev/null

# Global (T) and weak (W) text symbols, mangled, one per line.
defined_functions() { nm --defined-only "$@" 2>/dev/null | awk '$2 ~ /^[TW]$/ {print $3}'; }

consumers=()
for f in "$OUT"/root/examples/* "$OUT"/root/bench/* "$OUT/perfbench/prm_bench"; do
  [[ -f $f && -x $f ]] && consumers+=("$f")
done
reached="$OUT/reached.txt"
for f in "${consumers[@]}"; do defined_functions "$f"; done | sort -u > "$reached"

echo "consumers: ${#consumers[@]} binaries"
total=0
for lib in "$OUT"/root/src/libprm_*.a; do
  # Only strong globals: weak symbols are inline or template code that every
  # including TU emits, so their absence from one library says nothing.
  nm --defined-only "$lib" 2>/dev/null | awk '$2 == "T" {print $3}' | sort -u > "$OUT/lib.txt"
  exported=$(wc -l < "$OUT/lib.txt")
  comm -23 "$OUT/lib.txt" "$reached" | c++filt > "$OUT/unreached.txt"
  unreached=$(wc -l < "$OUT/unreached.txt")
  total=$((total + unreached))
  echo
  echo "== $(basename "$lib"): $unreached of $exported exported functions in no binary"
  sed 's/^/  /' "$OUT/unreached.txt"
done
rm -f "$OUT/lib.txt" "$OUT/unreached.txt"
echo
echo "total unreached: $total (candidates; see the inlining caveat above)"
