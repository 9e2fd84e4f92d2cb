#!/usr/bin/env bash
# Runs every bench binary and writes BENCH_<name>.json at the repo root
# (override with OUT_DIR). Binaries are looked up in BUILD_DIR/bench
# (default: build/bench). Set O1MEM_BENCH_SMALL=1 for the quick CI smoke.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
OUT_DIR="${OUT_DIR:-$ROOT}"

BENCHES=(
  fig1a_mmap_cost
  fig1b_touch_pages
  fig2_alloc_anon_vs_pmfs
  fig3_shared_mappings
  fig8_pbm
  fig9_range_translation
  sec43_read_vs_mmap
  abl_zeroing
  abl_reclaim
  abl_metadata
  abl_hugepages
  abl_virt_walks
  abl_pinning
  abl_fork
  abl_runtime
  abl_recovery
  abl_overload
  abl_smp_scaling
  abl_tiering
  abl_malloc_wcet
  abl_fragmentation
  app_kv_service
)

for bench in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$bench"
  if [[ ! -x "$bin" ]]; then
    echo "missing bench binary: $bin (run cmake --build $BUILD_DIR first)" >&2
    exit 1
  fi
  echo "=== $bench ==="
  # app_kv_service, abl_malloc_wcet and abl_fragmentation also write Chrome
  # traces (TRACE_*.json, Perfetto-loadable); the malloc and fragmentation
  # ones double as inputs for trace_report.py's --check-o1 verdicts in CI.
  extra=()
  if [[ "$bench" == "app_kv_service" || "$bench" == "abl_malloc_wcet" ||
        "$bench" == "abl_fragmentation" ]]; then
    extra+=("--trace=$OUT_DIR/TRACE_$bench.json")
  fi
  # The serving trace doubles as the tail_explainer.py input in CI: burst
  # arrival over capacity gives the tail structure (admission waits, client
  # retries) worth attributing, and --trace arms the exemplar reservoir +
  # per-tick metrics ring alongside the event ring.
  if [[ "$bench" == "app_kv_service" ]]; then
    extra+=("--arrival=burst:24x40")
  fi
  "$bin" "--json=$OUT_DIR/BENCH_$bench.json" "${extra[@]}"
done

echo "wrote ${#BENCHES[@]} JSON files to $OUT_DIR"
