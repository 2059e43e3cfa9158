#!/usr/bin/env bash
# Tier-1 verification plus the golden fingerprints of the canonical reports
# and checkpoints (checked in the plain, ASan+UBSan and Release builds), an
# ASan+UBSan pass, the Release bench gates, and the chaos and round-trip
# byte-identity gates.
#
# Each bench declares its bounds as data: the "gates" array of its
# BENCH_*.json (bench/bench_json.h). A bench exits non-zero when a gate
# fails, and tools/bench_schema_check then re-evaluates every gate and
# compares each file's shape with the committed repo-root file of the same
# basename. The gates cover serial/parallel and checked-engine identity,
# the disabled crash-safe engine's overhead, the scheduler events/sec
# floor, the obs overhead and determinism bounds, the campaign
# throughput floor, O(shards) memory and shard identity, the passive
# matcher's packets/sec floor and report identity, the payload copy cut
# and the fault-stage identity. The throughput floors hold for Release
# builds; a Debug run of those benches can fail them.
#
#   scripts/check.sh          # full: plain build + ctest, ASan+UBSan build
#                             # + ctest, Release goldens, the six benches
#                             # and their gates, then the chaos and pcap
#                             # byte-identity gates
#   scripts/check.sh --fast   # plain build + ctest only (skip sanitizers/perf/obs)
#
# Exits non-zero on the first failing step. Build trees: build/ (plain),
# build-asan-ubsan/ (ASan+UBSan) and build-release/ (perf); all incremental
# across invocations.
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "usage: scripts/check.sh [--fast]" >&2; exit 2 ;;
  esac
done

step() { printf '\n== %s ==\n' "$*"; }

# Prefer Ninja, but never fight an already-configured tree's generator.
gen_for() {
  if [[ ! -f "$1/CMakeCache.txt" ]] && command -v ninja >/dev/null 2>&1; then
    echo "-G Ninja"
  fi
}

step "tier-1: configure"
# shellcheck disable=SC2046
cmake -B build -S . $(gen_for build)

step "tier-1: build"
cmake --build build -j

step "tier-1: ctest (-L tier1)"
ctest --test-dir build -L tier1 --output-on-failure

step "faults: ctest (-L faults)"
ctest --test-dir build -L faults --output-on-failure

step "perf: ctest (-L perf)"
ctest --test-dir build -L perf --output-on-failure

step "obs: ctest (-L obs)"
ctest --test-dir build -L obs --output-on-failure

step "kernel: ctest (-L kernel)"
ctest --test-dir build -L kernel --output-on-failure

step "resilience: ctest (-L resilience)"
ctest --test-dir build -L resilience --output-on-failure

step "campaign: ctest (-L campaign)"
ctest --test-dir build -L campaign --output-on-failure

step "passive: ctest (-L passive)"
ctest --test-dir build -L passive --output-on-failure

step "golden: ctest (-L golden)"
ctest --test-dir build -L golden --output-on-failure

if [[ "$FAST" == 1 ]]; then
  echo
  echo "check.sh: tier-1 OK (sanitizer and perf passes skipped with --fast)"
  exit 0
fi

step "asan+ubsan: configure (BNM_SANITIZE=address,undefined)"
# UBSan is built with -fno-sanitize-recover, so any undefined behaviour a
# test reaches (in the registry's single-writer cells, the HTTP cursor
# parser, ...) aborts that test.
# shellcheck disable=SC2046
cmake -B build-asan-ubsan -S . $(gen_for build-asan-ubsan) \
  -DBNM_SANITIZE=address,undefined

step "asan+ubsan: build tests"
cmake --build build-asan-ubsan -j --target bnm_tests bnm_fault_tests bnm_perf_tests bnm_obs_tests bnm_kernel_tests bnm_resilience_tests bnm_campaign_tests bnm_passive_tests bnm_golden_tests bench_schema_check campaign_scale passive_scale

step "asan+ubsan: ctest (every label: tier1, obs, perf, faults, ...)"
ctest --test-dir build-asan-ubsan --output-on-failure

step "perf: configure (Release)"
# shellcheck disable=SC2046
cmake -B build-release -S . $(gen_for build-release) -DCMAKE_BUILD_TYPE=Release

step "perf: build bench"
cmake --build build-release -j --target perf_matrix payload_copy fault_overhead obs_overhead bench_schema_check chaos_matrix campaign_scale campaign passive_scale passive_pcap bnm_golden_tests bnm_kernel_tests

step "kernel: Release ctest (-L kernel)"
# The per-repetition allocation ceilings must hold in the configuration
# perfbench measures, not only in the plain build.
ctest --test-dir build-release -L kernel --output-on-failure

step "golden: Release ctest (-L golden)"
# The committed fingerprints carry no per-build-type variants: the
# optimized build must reproduce every canonical report bit for bit too.
ctest --test-dir build-release -L golden --output-on-failure

# Every bench below writes BENCH_<name>.json into build-release/ and exits
# non-zero when one of its gates fails (set -e stops the script there).
step "perf: bench/perf_matrix --runs=4 (identity, checkpoint-overhead and scheduler gates)"
(cd build-release && ./bench/perf_matrix --runs=4)

step "perf: bench/payload_copy and bench/fault_overhead (copy-cut and identity gates)"
(cd build-release && ./bench/payload_copy && ./bench/fault_overhead)

step "obs: bench/obs_overhead --runs=8 (overhead + determinism gates)"
(cd build-release && ./bench/obs_overhead --runs=8)

step "campaign: bench/campaign_scale --clients=100000 (scale, memory and identity gates)"
(cd build-release && ./bench/campaign_scale --clients=100000 --runs=1)

step "passive: bench/passive_scale (matcher throughput and identity gates)"
(cd build-release && ./bench/passive_scale)

step "obs: shapes and gates of every BENCH_*.json"
# Each file's shape must match the committed repo-root file of the same
# basename, and its gates are evaluated once more from the file itself.
./build-release/tools/bench_schema_check \
  build-release/BENCH_{perf_matrix,payload_copy,fault_overhead,obs_overhead,campaign_scale,passive_scale}.json

step "passive: pcap round-trip gate (offline report == live tap report)"
# A faulted run's client tap written to a classic pcap file, re-read
# offline and fed to a fresh estimator must reproduce the live tap's
# report byte for byte. passive_pcap exits non-zero itself on a mismatch
# (or when the faults failed to exercise the Karn-suppression path); the
# cmp double-checks the emitted files.
PASSIVE_DIR=build-release/passive_roundtrip
rm -rf "$PASSIVE_DIR"
mkdir -p "$PASSIVE_DIR"
./build-release/tools/passive_pcap \
  --pcap="$PASSIVE_DIR/capture.pcap" \
  --live-report="$PASSIVE_DIR/REPORT_passive_live.json" \
  --offline-report="$PASSIVE_DIR/REPORT_passive_offline.json"
if ! cmp -s "$PASSIVE_DIR/REPORT_passive_live.json" \
    "$PASSIVE_DIR/REPORT_passive_offline.json"; then
  echo "check.sh: FAIL — offline pcap report differs from the live tap" >&2
  exit 1
fi
echo "passive pcap gate OK: offline report byte-identical to the live tap"

step "resilience: chaos gate (kill after K cells -> resume -> byte-identity)"
# A run hard-killed mid-matrix (std::_Exit inside the progress callback,
# i.e. after the checkpoint flush but before any cleanup) and resumed from
# its checkpoint must produce a final report byte-identical to a clean
# uninterrupted run's — with and without active fault plans.
CHAOS=./build-release/tools/chaos_matrix
CHAOS_DIR=build-release/chaos
rm -rf "$CHAOS_DIR"
mkdir -p "$CHAOS_DIR"
chaos_cycle() {  # $1: extra flags ("" or --faults), $2: scenario tag
  local flags=$1 tag=$2 rc=0
  # shellcheck disable=SC2086
  "$CHAOS" $flags --checkpoint="$CHAOS_DIR/CHECKPOINT_${tag}_clean.json" \
    --report="$CHAOS_DIR/REPORT_matrix_${tag}_clean.json" >/dev/null
  # shellcheck disable=SC2086
  "$CHAOS" $flags --checkpoint="$CHAOS_DIR/CHECKPOINT_${tag}.json" \
    --kill-after=3 >/dev/null || rc=$?
  if [[ "$rc" != 42 ]]; then
    echo "check.sh: FAIL — chaos kill ($tag) exited $rc, expected 42" >&2
    exit 1
  fi
  # shellcheck disable=SC2086
  "$CHAOS" $flags --checkpoint="$CHAOS_DIR/CHECKPOINT_${tag}.json" --resume \
    --report="$CHAOS_DIR/REPORT_matrix_${tag}_resumed.json" >/dev/null
  if ! cmp -s "$CHAOS_DIR/REPORT_matrix_${tag}_clean.json" \
      "$CHAOS_DIR/REPORT_matrix_${tag}_resumed.json"; then
    echo "check.sh: FAIL — resumed report ($tag) differs from the clean run" >&2
    exit 1
  fi
  echo "chaos gate OK ($tag): killed after 3 cells, resumed byte-identical"
}
chaos_cycle ""       healthy
chaos_cycle --faults faulty

step "campaign: chaos gate (kill after K shards -> resume -> byte-identity)"
# Same discipline for the campaign engine: a run hard-killed mid-campaign
# (std::_Exit inside the progress callback, after the shard's checkpoint
# flush) and resumed must write a report byte-identical to a clean run's.
CAMPAIGN=./build-release/tools/campaign
CAMP_DIR=build-release/campaign_chaos
rm -rf "$CAMP_DIR"
mkdir -p "$CAMP_DIR"
CAMP_FLAGS=(--clients=2000 --shards=8 --runs=1 --jobs=1 --quiet)
"$CAMPAIGN" "${CAMP_FLAGS[@]}" \
  --report="$CAMP_DIR/REPORT_campaign_clean.json" 2>/dev/null
camp_rc=0
"$CAMPAIGN" "${CAMP_FLAGS[@]}" \
  --checkpoint="$CAMP_DIR/CHECKPOINT_campaign.json" \
  --kill-after=3 2>/dev/null || camp_rc=$?
if [[ "$camp_rc" != 42 ]]; then
  echo "check.sh: FAIL — campaign kill exited $camp_rc, expected 42" >&2
  exit 1
fi
"$CAMPAIGN" "${CAMP_FLAGS[@]}" \
  --checkpoint="$CAMP_DIR/CHECKPOINT_campaign.json" --resume \
  --report="$CAMP_DIR/REPORT_campaign_resumed.json" 2>/dev/null
if ! cmp -s "$CAMP_DIR/REPORT_campaign_clean.json" \
    "$CAMP_DIR/REPORT_campaign_resumed.json"; then
  echo "check.sh: FAIL — resumed campaign report differs from the clean run" >&2
  exit 1
fi
echo "campaign chaos gate OK: killed after 3 shards, resumed byte-identical"

echo
echo "check.sh: tier-1 + ASan/UBSan + perf + obs + resilience + campaign + passive OK"
