// State-commitment bench: incremental MPT roots + the async commit pipeline.
//
// Two experiments over the fig-9 multi-block workload (preset_mainnet,
// ~132-tx blocks, chained heights):
//
//  1. Root recomputation — after applying one block's writes, time
//     state_root() (incremental: only dirty paths re-hash) against
//     state_root_full_rebuild() (the seed implementation: every trie node
//     rebuilt and re-hashed).  The paper's §5.2 root-equality check pays
//     this cost on every block, so the ratio is the direct win.
//
//  2. Pipeline overlap — propose a chain of blocks with header sealing on
//     the CommitPipeline vs inline.  Stopwatch phases per height show block
//     N's commitment running during block N+1's execution; the JSON records
//     both walls and the tail wait.
//
//  3. Copy under commit — a pool thread runs a heavyweight state_root()
//     (the in-flight commit) while the main thread keeps taking
//     finalize-time WorldState copies of the same object.  The seed
//     implementation held commit_mu_ across the whole computation, so
//     every copy stalled for the full commit; with the snapshot-based
//     phase split a copy only contends for the short collect/install
//     critical sections.  The worst copy latency vs the commit wall is
//     the evidence.
//
// Emits BENCH_commit.json (machine-readable) plus a stdout summary.
//  4. Paged-store rider — the same overlapped chain with a PagedNodeStore
//     attached to the pipeline, so every seal also appends the block's
//     dirty trie nodes to disk.  The appends ride the commit future, off
//     the sealing path.  Paired repeats give one wall delta each; the
//     median and range of those deltas are reported, beside the persist
//     totals, as a measurement rather than a gate.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "commit/commit_pipeline.hpp"
#include "db/paged_node_store.hpp"
#include "support/stopwatch.hpp"
#include "trie/node_cache.hpp"

namespace blockpilot::bench {
namespace {

constexpr std::size_t kHeights = 8;

struct RootSample {
  std::size_t txs = 0;
  double incremental_ms = 0.0;
  double full_rebuild_ms = 0.0;
};

struct OverlapSample {
  std::size_t txs = 0;
  double exec_ms = 0.0;     // propose wall (execution + assembly)
  double commit_ms = 0.0;   // root hashing on the commit pool
  double persist_ms = 0.0;  // node-store appends riding the seal (exp. 4)
  std::size_t nodes_appended = 0;
};

// ---- experiment 1: incremental vs full-rebuild root recomputation ----
std::vector<RootSample> run_root_recompute(double* oracle_mismatch) {
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = 0xF19;
  workload::WorkloadGenerator gen(wc);

  // Chain of honest blocks; each block's profile carries its write sets.
  std::vector<HonestBlock> chain;
  const state::WorldState genesis = gen.genesis();
  const state::WorldState* parent = &genesis;
  for (std::size_t h = 1; h <= kHeights; ++h) {
    chain.push_back(build_honest_block(*parent, gen.next_block(), h));
    parent = chain.back().post_state.get();
  }

  state::WorldState running = genesis;
  (void)running.state_root();  // commit the baseline

  std::vector<RootSample> samples;
  *oracle_mismatch = 0;
  for (const HonestBlock& hb : chain) {
    // Replay the block as raw write sets (value-identical to the honest
    // execution for commitment purposes).
    for (const chain::TxProfile& tx : hb.bundle.profile.txs)
      for (const auto& [key, value] : tx.writes) running.set(key, value);

    RootSample s;
    s.txs = hb.bundle.profile.size();
    Stopwatch sw;
    const Hash256 incremental = running.state_root();
    s.incremental_ms = sw.elapsed_ms();
    sw.reset();
    const Hash256 oracle = running.state_root_full_rebuild();
    s.full_rebuild_ms = sw.elapsed_ms();
    if (incremental != oracle) *oracle_mismatch += 1;
    samples.push_back(s);
  }
  return samples;
}

// ---- experiment 2: async seal overlap across a proposed chain ----
std::vector<OverlapSample> run_overlap_once(commit::CommitPipeline* pipe,
                                            double* wall_out,
                                            double* tail_out) {
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = 0xF19;
  workload::WorkloadGenerator gen(wc);
  state::WorldState genesis = gen.genesis();
  // A live node starts from a parent whose commitment is final: commit the
  // genesis root outside the timed region so height 1 doesn't pay the
  // one-off whole-state build in either mode.
  (void)genesis.state_root();

  core::ProposerConfig cfg;
  cfg.threads = 4;
  cfg.commit_pipeline = pipe;
  core::OccWsiProposer proposer(cfg);

  std::vector<OverlapSample> samples;
  std::vector<core::ProposedBlock> blocks;
  Stopwatch wall;
  const state::WorldState* parent = &genesis;
  for (std::size_t h = 1; h <= kHeights; ++h) {
    txpool::TxPool pool;
    pool.add_all(gen.next_block());
    Stopwatch sw;
    blocks.push_back(proposer.propose_virtual(*parent, ctx_for(h), pool));
    OverlapSample s;
    s.txs = blocks.back().block.transactions.size();
    s.exec_ms = sw.elapsed_ms();  // inline mode: includes sealing
    samples.push_back(s);
    parent = blocks.back().post_state.get();
  }
  // Overlap window closes here: settle every pending seal.
  Stopwatch tail;
  for (std::size_t h = 0; h < blocks.size(); ++h) {
    blocks[h].await_seal();
    if (blocks[h].commit.valid()) {
      const commit::CommitResult& r = blocks[h].commit.get();
      samples[h].commit_ms = r.commit_ms;
      samples[h].persist_ms = r.persist_ms;
      samples[h].nodes_appended = r.nodes_appended;
    }
  }
  *tail_out = tail.elapsed_ms();
  *wall_out = wall.elapsed_ms();
  return samples;
}

// ---- experiment 3: finalize-time copies racing an in-flight commit ----
struct CopyUnderCommit {
  double commit_ms = 0.0;         // wall of the in-flight state_root()
  double copy_idle_ms = 0.0;      // best-of-3 copy with no commit running
  double copy_worst_ms = 0.0;     // worst copy taken while commit in flight
  double copy_mean_ms = 0.0;
  std::size_t copies = 0;         // copies completed before the commit did
  bool roots_agree = false;       // mid-commit snapshot == oracle root
};

CopyUnderCommit run_copy_under_commit() {
  workload::WorkloadConfig wc = workload::preset_mainnet();
  wc.seed = 0xF19;
  workload::WorkloadGenerator gen(wc);

  // Heavyweight commit: genesis is never rooted, and every block's writes
  // pile onto the dirty set, so the pool thread's state_root() builds the
  // entire trie in one go.
  state::WorldState running = gen.genesis();
  {
    std::shared_ptr<state::WorldState> keep;
    const state::WorldState* parent = &running;
    for (std::size_t h = 1; h <= kHeights; ++h) {
      const HonestBlock hb = build_honest_block(*parent, gen.next_block(), h);
      for (const chain::TxProfile& tx : hb.bundle.profile.txs)
        for (const auto& [key, value] : tx.writes) running.set(key, value);
      keep = hb.post_state;
      parent = keep.get();
    }
  }

  CopyUnderCommit out;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    const state::WorldState idle_copy(running);
    const double ms = sw.elapsed_ms();
    if (rep == 0 || ms < out.copy_idle_ms) out.copy_idle_ms = ms;
  }

  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> done{false};
  pool.submit([&running, &started, &done, &out] {
    started.store(true, std::memory_order_release);
    Stopwatch sw;
    (void)running.state_root();
    out.commit_ms = sw.elapsed_ms();
    done.store(true, std::memory_order_release);
  });
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();

  std::vector<state::WorldState> snapshots;
  double total = 0;
  while (!done.load(std::memory_order_acquire)) {
    Stopwatch sw;
    snapshots.emplace_back(running);
    const double ms = sw.elapsed_ms();
    total += ms;
    if (ms > out.copy_worst_ms) out.copy_worst_ms = ms;
  }
  pool.wait_idle();
  out.copies = snapshots.size();
  out.copy_mean_ms = out.copies > 0 ? total / out.copies : 0.0;

  // A copy taken mid-commit is logically identical to the source: its own
  // root must land on the same hash the committed source settled on.
  if (!snapshots.empty())
    out.roots_agree = snapshots.back().state_root() == running.state_root();
  return out;
}

// Scheduler noise dominates single-digit-ms walls (especially on low-core
// boxes where the commit pool time-slices against the proposer), so take
// the best of a few repeats per mode.
constexpr int kOverlapRepeats = 3;

std::vector<OverlapSample> run_overlap(commit::CommitPipeline* pipe,
                                       double* wall_out, double* tail_out) {
  std::vector<OverlapSample> best;
  double best_wall = 0, best_tail = 0;
  for (int rep = 0; rep < kOverlapRepeats; ++rep) {
    double w = 0, t = 0;
    std::vector<OverlapSample> s = run_overlap_once(pipe, &w, &t);
    if (rep == 0 || w < best_wall) {
      best = std::move(s);
      best_wall = w;
      best_tail = t;
    }
  }
  *wall_out = best_wall;
  *tail_out = best_tail;
  return best;
}

// Summary statistics of a small sample; 0 for an empty one.
double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}
double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}
double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

void run() {
  print_header("State commitment: incremental MPT + async commit pipeline",
               "root check moves off the critical path (§5.2 overlap)");

  trie::NodeCache::global().clear();
  trie::NodeCache::global().reset_stats();

  double mismatches = 0;
  const std::vector<RootSample> roots = run_root_recompute(&mismatches);
  const trie::NodeCache::Stats cache = trie::NodeCache::global().stats();

  double incr_total = 0, full_total = 0;
  std::printf("%8s %6s %16s %16s %10s\n", "height", "txs", "incremental-ms",
              "full-rebuild-ms", "speedup");
  for (std::size_t h = 0; h < roots.size(); ++h) {
    const RootSample& s = roots[h];
    incr_total += s.incremental_ms;
    full_total += s.full_rebuild_ms;
    std::printf("%8zu %6zu %16.3f %16.3f %9.1fx\n", h + 1, s.txs,
                s.incremental_ms, s.full_rebuild_ms,
                s.incremental_ms > 0 ? s.full_rebuild_ms / s.incremental_ms
                                     : 0.0);
  }
  const double speedup = incr_total > 0 ? full_total / incr_total : 0.0;
  std::printf("root recompute: %.3f ms incremental vs %.3f ms full "
              "(%.1fx), oracle mismatches: %.0f\n",
              incr_total, full_total, speedup, mismatches);
  // Node hashing never consults the NodeCache; it only serves disk-backed
  // stub loads, and these in-memory roots load none, so zeros are expected.
  std::printf("node cache (stub loads): %" PRIu64 " hits / %" PRIu64
              " misses, %zu entries, %zu / %zu bytes\n",
              cache.load_hits, cache.load_misses, cache.entries, cache.bytes,
              cache.capacity);

  // Overlap experiment: inline sealing vs commit-pipeline sealing.
  double serial_wall = 0, serial_tail = 0;
  const auto serial = run_overlap(nullptr, &serial_wall, &serial_tail);

  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  double async_wall = 0, async_tail = 0;
  const auto overlapped = run_overlap(&pipe, &async_wall, &async_tail);

  std::printf("\n%8s %6s %14s %14s %14s\n", "height", "txs", "serial-ms",
              "async-exec-ms", "commit-ms");
  for (std::size_t h = 0; h < overlapped.size(); ++h) {
    std::printf("%8zu %6zu %14.2f %14.2f %14.2f\n", h + 1, overlapped[h].txs,
                serial[h].exec_ms, overlapped[h].exec_ms,
                overlapped[h].commit_ms);
  }
  double commit_total = 0;
  for (const OverlapSample& s : overlapped) commit_total += s.commit_ms;
  std::printf("pipeline wall: %.2f ms inline-seal vs %.2f ms overlapped "
              "(tail wait %.2f ms, saved %.2f ms)\n",
              serial_wall, async_wall, async_tail, serial_wall - async_wall);

  // Experiment 4: the same overlapped chain, now with the paged node store
  // attached — every seal also appends the block's dirty nodes to disk.
  // Walls on a time-sliced box are noisy, so the comparison is PAIRED:
  // store-less and store-attached runs alternate in one process, each pair
  // gives one delta, and the deltas' median and range show the spread.
  constexpr int kPairedRepeats = 5;
  char store_dir[] = "/tmp/bpdb_commit_XXXXXX";
  std::vector<double> plain_walls, store_walls, delta_pcts;
  double persist_total = 0;
  std::size_t nodes_appended_total = 0;
  std::uint64_t store_file_bytes = 0;
  bool store_ok = ::mkdtemp(store_dir) != nullptr;
  if (store_ok) {
    std::unique_ptr<db::PagedNodeStore> store;
    store_ok = db::PagedNodeStore::open(store_dir, {}, store).ok();
    if (store_ok) {
      commit::CommitPipeline store_pipe(&commit_pool);
      store_pipe.set_node_store(store.get());
      for (int rep = 0; rep < kPairedRepeats; ++rep) {
        double plain = 0, stored = 0, t = 0;
        (void)run_overlap_once(&pipe, &plain, &t);
        const auto rode = run_overlap_once(&store_pipe, &stored, &t);
        for (const OverlapSample& s : rode) persist_total += s.persist_ms;
        plain_walls.push_back(plain);
        store_walls.push_back(stored);
        delta_pcts.push_back(plain > 0 ? 100.0 * (stored - plain) / plain
                                       : 0.0);
      }
      // The repeats re-propose the same chain, so only the first pass
      // appends new nodes (dedup after); count appends store-wide.
      nodes_appended_total = static_cast<std::size_t>(store->stats().puts);
      store_file_bytes = store->stats().file_bytes;
      std::printf("\npaged-store rider (%d paired repeats): median %.2f ms "
                  "overlapped wall with disk appends vs %.2f ms without; "
                  "delta median %+.1f%%, range %+.1f%% .. %+.1f%%\n",
                  kPairedRepeats, median_of(store_walls),
                  median_of(plain_walls), median_of(delta_pcts),
                  min_of(delta_pcts), max_of(delta_pcts));
      std::printf("  %zu nodes appended (%.2f ms persist riding the seals "
                  "across all repeats, %.1f KiB on disk)\n",
                  nodes_appended_total, persist_total,
                  static_cast<double>(store_file_bytes) / 1024.0);
    }
    std::filesystem::remove_all(store_dir);
  }
  if (!store_ok) std::printf("paged-store rider: store setup failed\n");
  std::printf("commitment hashing: %.2f ms total, %.2f ms hidden under "
              "execution (%.0f%%) on %u hardware threads\n",
              commit_total, commit_total - async_tail,
              commit_total > 0
                  ? 100.0 * (commit_total - async_tail) / commit_total
                  : 0.0,
              std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() < 2)
    std::printf("note: single hardware thread -- overlapped wall cannot beat "
                "inline (no parallelism); overlap evidence is the hidden/tail "
                "split above\n");

  // Copy-under-commit experiment: the finalize path must not stall.
  const CopyUnderCommit cuc = run_copy_under_commit();
  std::printf("\ncopy under in-flight commit: %zu copies completed during a "
              "%.2f ms commit\n",
              cuc.copies, cuc.commit_ms);
  std::printf("  copy latency: %.3f ms idle, %.3f ms mean / %.3f ms worst "
              "while committing (commit would have blocked each for up to "
              "%.2f ms pre-snapshot)\n",
              cuc.copy_idle_ms, cuc.copy_mean_ms, cuc.copy_worst_ms,
              cuc.commit_ms);
  std::printf("  mid-commit snapshot root agrees with committed source: %s\n",
              cuc.roots_agree ? "yes" : (cuc.copies ? "NO" : "n/a"));

  // ---- machine-readable record ----
  FILE* f = std::fopen("BENCH_commit.json", "w");
  if (f == nullptr) {
    std::printf("cannot write BENCH_commit.json\n");
    return;
  }
  std::fprintf(f, "{\n  \"workload\": \"preset_mainnet fig9 seed=0xF19\",\n");
  std::fprintf(f, "  \"heights\": %zu,\n", kHeights);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"root_recompute\": {\n    \"per_block\": [\n");
  for (std::size_t h = 0; h < roots.size(); ++h) {
    std::fprintf(f,
                 "      {\"height\": %zu, \"txs\": %zu, \"incremental_ms\": "
                 "%.4f, \"full_rebuild_ms\": %.4f}%s\n",
                 h + 1, roots[h].txs, roots[h].incremental_ms,
                 roots[h].full_rebuild_ms, h + 1 < roots.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"incremental_total_ms\": %.4f,\n", incr_total);
  std::fprintf(f, "    \"full_rebuild_total_ms\": %.4f,\n", full_total);
  std::fprintf(f, "    \"speedup\": %.2f,\n", speedup);
  std::fprintf(f, "    \"oracle_mismatches\": %.0f\n  },\n", mismatches);
  std::fprintf(f,
               "  \"node_cache\": {\"role\": \"stub-load read cache\", "
               "\"load_hits\": %" PRIu64 ", \"load_misses\": %" PRIu64
               ", \"entries\": %zu, \"bytes\": %zu, \"capacity_bytes\": "
               "%zu},\n",
               cache.load_hits, cache.load_misses, cache.entries, cache.bytes,
               cache.capacity);
  std::fprintf(f, "  \"overlap\": {\n    \"phases\": [\n");
  for (std::size_t h = 0; h < overlapped.size(); ++h) {
    std::fprintf(f,
                 "      {\"height\": %zu, \"txs\": %zu, \"serial_ms\": %.4f, "
                 "\"async_exec_ms\": %.4f, \"commit_ms\": %.4f}%s\n",
                 h + 1, overlapped[h].txs, serial[h].exec_ms,
                 overlapped[h].exec_ms, overlapped[h].commit_ms,
                 h + 1 < overlapped.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n");
  std::fprintf(f, "    \"serial_wall_ms\": %.4f,\n", serial_wall);
  std::fprintf(f, "    \"overlapped_wall_ms\": %.4f,\n", async_wall);
  std::fprintf(f, "    \"commit_total_ms\": %.4f,\n", commit_total);
  std::fprintf(f, "    \"commit_tail_wait_ms\": %.4f,\n", async_tail);
  std::fprintf(f, "    \"commit_hidden_ms\": %.4f,\n",
               commit_total - async_tail);
  std::fprintf(f, "    \"saved_ms\": %.4f\n  },\n",
               serial_wall - async_wall);
  std::fprintf(f, "  \"paged_store_rider\": {\n");
  std::fprintf(f, "    \"paired_repeats\": %zu,\n", delta_pcts.size());
  std::fprintf(f, "    \"wall_ms_median\": %.4f,\n", median_of(store_walls));
  std::fprintf(f, "    \"storeless_wall_ms_median\": %.4f,\n",
               median_of(plain_walls));
  std::fprintf(f, "    \"wall_delta_pct_median\": %.2f,\n",
               median_of(delta_pcts));
  std::fprintf(f, "    \"wall_delta_pct_min\": %.2f,\n", min_of(delta_pcts));
  std::fprintf(f, "    \"wall_delta_pct_max\": %.2f,\n", max_of(delta_pcts));
  std::fprintf(f, "    \"persist_total_ms\": %.4f,\n", persist_total);
  std::fprintf(f, "    \"nodes_appended\": %zu,\n", nodes_appended_total);
  std::fprintf(f, "    \"file_bytes\": %" PRIu64 "\n  },\n",
               store_file_bytes);
  std::fprintf(f, "  \"copy_under_commit\": {\n");
  std::fprintf(f, "    \"commit_ms\": %.4f,\n", cuc.commit_ms);
  std::fprintf(f, "    \"copies_during_commit\": %zu,\n", cuc.copies);
  std::fprintf(f, "    \"copy_idle_ms\": %.4f,\n", cuc.copy_idle_ms);
  std::fprintf(f, "    \"copy_mean_ms\": %.4f,\n", cuc.copy_mean_ms);
  std::fprintf(f, "    \"copy_worst_ms\": %.4f,\n", cuc.copy_worst_ms);
  std::fprintf(f, "    \"roots_agree\": %s\n  }\n}\n",
               cuc.roots_agree ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_commit.json\n");
}

}  // namespace
}  // namespace blockpilot::bench

int main() { blockpilot::bench::run(); }
