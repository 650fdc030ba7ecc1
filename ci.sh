#!/usr/bin/env bash
# CI gate: tier-1 verify (full build + test suite), the commit-labeled
# tests — including the concurrency stress layer — and the ingest-labeled
# admission/soak tests under ThreadSanitizer,
# and the net-labeled consensus-loop tests (event-driven nodes, fork-choice
# fuzz, and the quorum/fault matrix — loss, duplication, partitions,
# Byzantine leaders) under both ThreadSanitizer and AddressSanitizer.
# The fuzz and the fault matrix detect sanitizer builds at compile time
# and trim their scenario sweeps so these gates stay within CI budget.
# The evm-labeled suites (interpreter differential, code-analysis cache)
# run under ThreadSanitizer to catch races on the shared per-code-hash
# analysis cache, and bench_evm --smoke gates fast-vs-reference
# bit-identity plus cache hit-rate floors.
# The stm-labeled suites (Block-STM scheduler, multi-version memory, the
# cross-engine differential, and the host-threads hammer) run in the
# default build and again under ThreadSanitizer (the tsan-stm preset).
# A Keccak gate fails when bench_micro_substrates' BM_Keccak32 (ns per call)
# or, on a CPU with avx512f, BM_Keccak32x8 (ns per hash) exceeds twice the
# last BENCH_keccak.json trajectory entry.
# The db-labeled crash/recovery suites additionally run under combined
# ASan+UBSan (the asan-db preset), and every db gate is followed by a
# tmpdir hygiene check: tests and benches must remove their page files.
#
#   ./ci.sh            # tier-1 + perf-smoke + e2ebench selftest + tsan commit/stress + tsan/asan net + asan-db
#   ./ci.sh --tier1    # tier-1 only (fast path)
#   JOBS=8 ./ci.sh     # override parallelism
set -euo pipefail
cd "$(dirname "$0")"

JOBS="${JOBS:-$(nproc)}"

# Page-store tests and benches create /tmp/bpdb_* scratch dirs and must
# remove them (crash-simulation paths included).  A leak here means a
# teardown bug, so fail the gate rather than fill the CI disk.
hygiene_check() {
  local leaked
  leaked="$(find /tmp -maxdepth 1 -name 'bpdb_*' -print 2>/dev/null || true)"
  if [[ -n "${leaked}" ]]; then
    echo "==> hygiene: leaked page-store scratch dirs after $1:" >&2
    echo "${leaked}" >&2
    exit 1
  fi
}

echo "==> tier-1: configure + build (RelWithDebInfo)"
cmake --preset default >/dev/null
cmake --build --preset default -j "${JOBS}"

echo "==> tier-1: full test suite"
ctest --preset default -j "${JOBS}"

if [[ "${1:-}" == "--tier1" ]]; then
  echo "==> tier-1 only: done"
  exit 0
fi

echo "==> perf-smoke: bench_versioned_state --smoke (sharded-store + engine gates)"
# Fails on crash, on the regression sentinel (sharded store slower than the
# embedded single-lock baseline), on a differential mismatch (proposed
# blocks not bit-identical to the pre-change capture), or on the regime-map
# gate (fewer than 4 largest-subgraph-ratio points, an OCC block that does
# not replay serially to its own root, a Block-STM block not bit-identical
# to its serial pop-order oracle, or a zero cross-engine speedup).
# Time-capped so a livelocked store cannot hang CI.
timeout 120 ./build/bench/bench_versioned_state --smoke

echo "==> perf-smoke: bench_db --smoke (paged-store gates)"
# Fails on crash or on any db gate: warm-cache replay not faster than the
# cold run, cache hit rate not strictly inside (0, 100)% with the cache
# capped below the working set, compaction losing the durable root, or a
# recovery mismatch.  Also exercises the bench's own scratch-dir cleanup.
timeout 180 ./build/bench/bench_db --smoke
hygiene_check "bench_db"

echo "==> perf-smoke: bench_ingest --smoke (live-ingestion gates)"
# Drives the NodeDriver firehose across all four traffic profiles with
# host-thread workers.  Fails on crash or on any ingestion gate: pool
# conservation violated, a (sender, nonce) slot committed twice, a starved
# proposer (>25% empty blocks — the stranded-ladder failure mode), or an
# empty admission-to-settle latency distribution.
timeout 300 ./build/bench/bench_ingest --smoke

echo "==> perf-smoke: bench_consensus --smoke (engine matrix + adaptive gates)"
# Engine section only: every proposer engine (OCC-WSI, Block-STM, adaptive)
# and every validator engine (subgraph-LPT, Block-STM, adaptive) must settle
# the full chain, the validator engines must agree on every canonical root,
# the adaptive proposer must land within 5% of the best fixed engine's
# settle latency, and the dex-heavy regime flip must actually flip the
# per-block pick.  Does not rewrite the committed BENCH_consensus.json.
timeout 120 ./build/bench/bench_consensus --smoke

echo "==> perf-smoke: bench_evm --smoke (interpreter + analysis-cache gates)"
# Fails on crash or on any evm gate: fast and reference interpreters not
# bit-identical on the compute contract, the analysis-backed dispatch not at
# least as fast as the reference switch, steady-state analysis-cache hit rate
# below 99% under the mainnet profile, or a per-profile state-root mismatch
# between the two interpreters.
timeout 180 ./build/bench/bench_evm --smoke

echo "==> perf-smoke: bench_micro_substrates Keccak gate"
# Fails when the median of three repetitions of BM_Keccak32 (scalar, ns per
# call) or BM_Keccak32x8 (the 8-lane AVX-512 kernel, ns per hash: one call
# hashes eight inputs) exceeds twice the last BENCH_keccak.json trajectory
# entry.  2x sits above the ~1.45x slow phase measured on a shared 4-vCPU VM
# and below the 4.4x of the old loop-form permutation, so it catches that
# regression but not the noise.  On a CPU without avx512f BM_Keccak32x8
# skips itself and only BM_Keccak32 is gated: keccak256_batch is scalar
# there.
./build/bench/bench_micro_substrates --benchmark_filter='^BM_Keccak32(x8)?$' \
    --benchmark_repetitions=3 --benchmark_report_aggregates_only=true \
    --benchmark_format=json | python3 -c '
import json, sys
run = json.load(sys.stdin)
with open("BENCH_keccak.json") as f:
    last = json.load(f)["trajectory"][-1]
hashes_per_call = {"BM_Keccak32": 1, "BM_Keccak32x8": 8}
ok = True
for name, hashes in hashes_per_call.items():
    rows = [b for b in run["benchmarks"] if b["run_name"] == name]
    errors = {b["error_message"] for b in rows if b.get("error_occurred")}
    if name == "BM_Keccak32x8" and errors == {"CPU lacks avx512f"}:
        print("%s skipped: CPU lacks avx512f" % name)
        continue
    medians = [b["cpu_time"] for b in rows if b.get("aggregate_name") == "median"]
    if errors or len(medians) != 1:
        print("%s: no median (%s)" % (name, ", ".join(sorted(errors)) or "missing"))
        ok = False
        continue
    ns = medians[0] / hashes
    print("%s median %.0f ns, limit %.0f ns (2 x %d)" % (name, ns, 2 * last[name], last[name]))
    ok = ok and ns <= 2 * last[name]
sys.exit(0 if ok else 1)
'

echo "==> e2ebench: run.py --selftest (two-node lifecycle benchmark's own tests)"
# Builds the standalone e2ebench project (Release, under .bench_build/) and
# runs its self-tests: the compute contract's output on both interpreters,
# byte-identical inputs per seed, every workload's chain run passing its
# correctness checks with identical fingerprints traced and untraced, and a
# different seed giving a different fingerprint.
timeout 900 python3 e2ebench/run.py --selftest

echo "==> tsan: configure + build (BLOCKPILOT_SANITIZE=thread)"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "${JOBS}"

echo "==> tsan: commit-labeled tests (includes the stress label)"
ctest --preset tsan-commit

echo "==> tsan: ingest-labeled tests (admission front, concurrent submit-vs-pop soak)"
ctest --preset tsan-ingest

echo "==> tsan: net-labeled tests (consensus loop, fork-choice fuzz, fault matrix)"
ctest --preset tsan-net

echo "==> tsan: evm-labeled tests (interpreter differential, shared analysis cache)"
ctest --preset tsan-evm

echo "==> tsan: stm-labeled tests (Block-STM scheduler + multi-version memory under real threads)"
ctest --preset tsan-stm

echo "==> tsan: engine-differential matrix (proposer x validator engines, adaptive selection)"
ctest --preset tsan-engine-matrix

echo "==> asan: configure + build (BLOCKPILOT_SANITIZE=address)"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "${JOBS}"

echo "==> asan: net-labeled tests (consensus loop, fork-choice fuzz, fault matrix)"
ctest --preset asan-net

echo "==> asan-db: configure + build (BLOCKPILOT_SANITIZE=address,undefined)"
cmake --preset asan-db >/dev/null
cmake --build --preset asan-db -j "${JOBS}"

echo "==> asan-db: db-labeled tests (page codecs, torn-write recovery, differential fuzz)"
ctest --preset asan-db
hygiene_check "asan-db tests"

echo "==> ci: all gates passed"
