#!/bin/sh
# Reach scan: the strong functions of the src/ libraries that no program
# links, checked against tools/reach_scan.allow.
#
#   tools/reach_scan.sh BUILD_DIR
#
# Configures the root build in BUILD_DIR and bench_pipeline in
# BUILD_DIR/bench_pipeline at -O0 with one section per function, links the
# programs with --gc-sections, and subtracts the union of their text symbols
# (nm types T t W w) from the strong (T) symbols of the libbistdse_*.a
# libraries under src/. The programs are bistdse_cli, sat_fuzz, every bench,
# every example and bench_pipeline; tests are not programs. -O0 keeps every
# call a call: at -O3 an inlined function would look unreached. Inline and
# template functions (weak symbols) are out of the scan's reach.
#
# Prints the unreached functions by qualified name (overloads share one
# line), one per line. Exit status: 0 when they are exactly the functions the
# allowlist names; 1 when the scan lists a function the allowlist does not
# name, or the allowlist names one the scan no longer finds; 2 on a usage or
# build error (the build log is BUILD_DIR/reach_scan.log).
set -eu

if [ $# -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
build=$1
jobs=$(nproc)
allow="$root/tools/reach_scan.allow"

mkdir -p "$build"
log="$build/reach_scan.log"
: > "$log"
# Runs a build step with its output in the log; on failure shows the log's
# tail and exits 2.
step() {
  if ! "$@" >> "$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "$0: build step failed (log: $log)" >&2
    exit 2
  fi
}

flags="-O0 -ffunction-sections -fdata-sections"
configure() {  # source dir, binary dir
  step cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="$flags" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections"
}

# The program targets, as their CMakeLists declare them.
programs=$(sed -n 's/^add_executable(\([A-Za-z0-9_]*\).*/\1/p' \
  "$root/tools/CMakeLists.txt" "$root/bench/CMakeLists.txt" \
  "$root/examples/CMakeLists.txt")

configure "$root" "$build"
# shellcheck disable=SC2086  # one target per word
step cmake --build "$build" -j "$jobs" --target $programs
configure "$root/bench_pipeline" "$build/bench_pipeline"
step cmake --build "$build/bench_pipeline" -j "$jobs" --target bench_pipeline

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for program in $programs; do
  path=$(find "$build" -path "$build/bench_pipeline" -prune -o \
    -type f -name "$program" -perm -u+x -print | head -n 1)
  if [ -z "$path" ]; then
    echo "$0: program $program not built" >&2
    exit 2
  fi
  echo "$path"
done > "$work/programs"
echo "$build/bench_pipeline/bench_pipeline" >> "$work/programs"

while read -r path; do
  nm "$path" | awk '$2 ~ /^[TtWw]$/ { print $3 }'
done < "$work/programs" | sort -u > "$work/reached"
for lib in "$build"/src/*/libbistdse_*.a; do
  nm --defined-only "$lib" 2>/dev/null | awk '$2 == "T" { print $3 }'
done | sort -u > "$work/strong"

comm -23 "$work/strong" "$work/reached" | c++filt --no-params | sort -u \
  > "$work/unreached"
sed -e '/^#/d' -e '/^[[:space:]]*$/d' -e 's/[[:space:]]*#.*//' "$allow" \
  | sort > "$work/allowed"

cat "$work/unreached"
status=0
comm -23 "$work/unreached" "$work/allowed" > "$work/new"
comm -13 "$work/unreached" "$work/allowed" > "$work/stale"
if [ -s "$work/new" ]; then
  echo "reach scan: unreached and not in tools/reach_scan.allow:" >&2
  sed 's/^/  /' "$work/new" >&2
  status=1
fi
if [ -s "$work/stale" ]; then
  echo "reach scan: in tools/reach_scan.allow but reached (or gone):" >&2
  sed 's/^/  /' "$work/stale" >&2
  status=1
fi
exit $status
