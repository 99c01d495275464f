#!/usr/bin/env bash
# Reachability gate: every out-of-line library function has a non-test
# caller (docs/ci.md#reachability).
#
# Builds the tree at -O0 with one section per function, links with
# --gc-sections, and lists every strong text symbol (`T`) of the
# libconvbound_*.a archives that no non-test executable keeps: not
# convbound-cli, not a bench_* or example binary, not the perfbench runner
# (perfbench/CMakeLists.txt, built read-only into the same build dir).
# At -O0 nothing is inlined, so inlining cannot hide a caller. Functions
# defined in headers (inline, templates) are weak or absent in the
# archives and are not checked.
#
# Functions named in tools/reachability_allowlist.txt (test oracles and
# observers, one qualified name per line, `#` comments) are exempt.
#
#   tools/check_reachability.sh [build-dir]     # default: build-reach
#
# Exits 1 and lists the unreached functions, demangled, if any remain.
set -euo pipefail
repo=$(cd "$(dirname "$0")/.." && pwd)
out=$(realpath -m "${1:-$repo/build-reach}")
jobs=$(nproc)
flags="-O0 -ffunction-sections -fdata-sections"

# CMAKE_BUILD_TYPE=None adds no per-config flags (no -O2, no -g). The
# Makefile generator's `help` target lists the executables below.
configure() {
  cmake -B "$1" -S "$2" -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
}

configure "$out" "$repo"
# Every target the build offers, minus tests, the libraries and the
# generator's own utility targets, is a non-test executable.
mapfile -t exes < <(cmake --build "$out" --target help |
  sed -n 's/^\.\.\. \([^ ]*\).*/\1/p' |
  grep -vE '[./]|_test$|^convbound(_.*)?$' |
  grep -vxE 'all|clean|depend|edit_cache|rebuild_cache|test|install')
if ! printf '%s\n' "${exes[@]}" | grep -q '^bench_'; then
  echo "error: no bench_* targets (google-benchmark not found?): the" \
    "benches are callers too" >&2
  exit 2
fi
cmake --build "$out" -j "$jobs" --target "${exes[@]}" >/dev/null

configure "$out/perfbench" "$repo/perfbench"
cmake --build "$out/perfbench" -j "$jobs" --target perfbench >/dev/null

bins=()
for e in "${exes[@]}"; do bins+=("$out/$e"); done
bins+=("$out/perfbench/perfbench")

lib_syms=$(nm --defined-only "$out"/libconvbound_*.a 2>/dev/null |
  awk '$2 == "T" { print $3 }' | sort -u)
kept=$(nm --defined-only "${bins[@]}" |
  awk '$2 == "T" || $2 == "W" || $2 == "t" { print $3 }' | sort -u)
# An allowlist entry is a qualified name without parameters, so it is
# matched against the demangled symbol cut at its parameter list.
unreached=$(comm -23 <(echo "$lib_syms") <(echo "$kept") | c++filt | sort -u |
  awk 'NR == FNR { if ($0 !~ /^[[:space:]]*(#|$)/) allow[$1] = 1; next }
       { name = $0; gsub(/\[abi:cxx11\]/, "", name); sub(/\(.*/, "", name)
         if (!(name in allow)) print }' \
    "$repo/tools/reachability_allowlist.txt" -)

echo "reachability: ${#bins[@]} non-test binaries," \
  "$(echo "$lib_syms" | wc -l) library functions"
if [ -n "$unreached" ]; then
  echo "library functions no non-test binary reaches:"
  echo "$unreached" | sed 's/^/  /'
  echo "delete them, give them a caller, or allowlist a test oracle or" \
    "observer in tools/reachability_allowlist.txt"
  exit 1
fi
echo "reachability: every library function has a non-test caller"
