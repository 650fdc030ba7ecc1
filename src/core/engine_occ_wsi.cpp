// OCC-WSI execution engines (paper §4.2, Algorithm 1).
//
// Worker threads repeatedly:
//  1. pop the highest-gas-price transaction from the pending pool;
//  2. take a snapshot version (the currently committed version) of the
//     multi-version state and execute the transaction against it;
//  3. enter the serialized commit section (Algorithm 1's DetectConflit +
//     "Synchronize with all worker threads"):
//       - WSI validation: if any key in the transaction's read set has a
//         committed version newer than the snapshot, the execution observed
//         stale data -> abort, push the transaction back into the pool;
//       - otherwise commit: assign version = block position + 1, apply the
//         write set, append to the block, record the profile entry.
// Write-write conflicts do NOT abort: blind writes serialize by version
// order, which is the WSI relaxation the paper exploits.
//
// The host-threads engine splits the state commit (VersionedState
// enqueue/apply): only the commit DECISION — capacity gate, WSI validation,
// version assignment, pending-queue enqueue — holds the commit mutex; the
// heavy chain maintenance drains outside it, so transactions with disjoint
// write sets flush their stripes concurrently.  The virtual-time engine
// keeps the inline commit() (its event loop is single-threaded, and the
// deterministic expectation tables pin its exact dynamics).
#include <algorithm>
#include <queue>
#include <unordered_map>

#include "core/execution_engine.hpp"
#include "state/exec_buffer.hpp"
#include "state/versioned_state.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::core {
namespace {

/// Shared mutable proposal state; the commit mutex serializes everything
/// below it (Algorithm 1's synchronized DetectConflit section).
struct ProposalShared {
  std::mutex commit_mu;
  std::vector<chain::Transaction> included;
  chain::BlockProfile profile;
  std::vector<chain::Receipt> receipts;
  std::vector<U256> fees;            // per-included-tx coinbase fees
  std::uint64_t gas_used = 0;
  std::uint64_t commit_events = 0;   // commit-section entries (incl. aborts)
  std::atomic<bool> full{false};     // gas limit / tx cap reached
  std::unordered_map<Hash256, int> not_ready_attempts;
};

class OccWsiHostEngine final : public ExecutionEngine {
 public:
  using ExecutionEngine::ExecutionEngine;

  ProposedBlock propose(const state::WorldState& pre,
                        const evm::BlockContext& block_ctx,
                        txpool::TxPool& pool, ThreadPool* workers) override;
};

class OccWsiVirtualEngine final : public ExecutionEngine {
 public:
  using ExecutionEngine::ExecutionEngine;

  ProposedBlock propose(const state::WorldState& pre,
                        const evm::BlockContext& block_ctx,
                        txpool::TxPool& pool, ThreadPool* workers) override;
};

ProposedBlock OccWsiHostEngine::propose(const state::WorldState& pre,
                                        const evm::BlockContext& block_ctx,
                                        txpool::TxPool& pool,
                                        ThreadPool* workers) {
  BP_ASSERT(config_.threads >= 1);
  BP_ASSERT(workers != nullptr);
  BP_ASSERT(workers->size() >= config_.threads);

  evm::BlockContext exec_ctx = block_ctx;
  if (config_.analysis_cache) exec_ctx.analysis_cache = config_.analysis_cache;

  state::VersionedState versioned(pre);
  ProposalShared shared;
  vtime::WorkLedger ledger(config_.threads);
  ProposerStats stats{};
  std::mutex stats_mu;
  Stopwatch wall;

  auto worker_loop = [&](std::size_t lane) {
    std::uint64_t local_aborts = 0;
    std::uint64_t local_not_ready = 0;
    std::uint64_t local_dropped = 0;
    // Lane-private execution scratch, recycled across transactions and
    // across re-executions of aborted ones: the buffer keeps its table
    // allocations, and the read cache keeps memoized snapshot values that
    // the version stamps prove still current (so a retry re-reads only the
    // keys that actually changed).
    state::ReadCache read_cache;
    state::ExecBuffer buffer;

    while (!shared.full.load(std::memory_order_acquire)) {
      auto popped = pool.pop();
      if (!popped.has_value()) break;
      chain::Transaction tx = std::move(*popped);

      // Execute against a snapshot of the currently committed state
      // (Algorithm 1 lines 8-9).
      const std::uint64_t snapshot_version = versioned.committed_version();
      const state::SnapshotView snapshot(versioned, snapshot_version,
                                         &read_cache);
      buffer.rebase(snapshot);
      const evm::TxExecResult r =
          evm::execute_transaction(buffer, exec_ctx, tx);

      if (r.status == evm::TxStatus::kInvalid) {
        ++local_dropped;
        pool.dropped(tx.from, tx.nonce);
        continue;
      }
      if (r.status == evm::TxStatus::kNotReady) {
        ++local_not_ready;
        // The snapshot's sender nonce is behind: an earlier same-sender
        // transaction is pending.  Defer until a commit advances the pool,
        // dropping permanently if no predecessor ever shows up.
        bool drop = false;
        {
          std::scoped_lock lk(shared.commit_mu);
          drop = ++shared.not_ready_attempts[tx.hash()] >
                 config_.max_not_ready_attempts;
        }
        if (drop) {
          ++local_dropped;
          pool.dropped(tx.from, tx.nonce);
        } else {
          pool.defer(std::move(tx));
        }
        continue;
      }

      // The execution itself is the dominant virtual cost; aborted attempts
      // are charged too (wasted work is real work).
      ledger.add(lane, r.gas_used);

      // ---- serialized commit section (DetectConflit) ----
      // Only the decision is serialized: validation, version assignment,
      // and the pending-queue enqueue.  The chain maintenance (apply)
      // drains outside the lock, overlapping disjoint committers.
      const Address committed_sender = tx.from;
      const std::uint64_t committed_nonce = tx.nonce;
      std::vector<std::pair<state::StateKey, U256>> writes;
      std::uint64_t version = 0;
      bool committed = false;
      {
        std::scoped_lock lk(shared.commit_mu);
        ledger.add(lane, config_.costs.commit_cost);
        ++shared.commit_events;

        if (shared.full.load(std::memory_order_relaxed)) {
          pool.push_back(std::move(tx));
          break;
        }
        if (shared.gas_used + r.gas_used > config_.block_gas_limit ||
            (config_.max_txs != 0 &&
             shared.included.size() >= config_.max_txs)) {
          shared.full.store(true, std::memory_order_release);
          pool.push_back(std::move(tx));
          break;
        }

        // WSI validation: abort iff a read key was overwritten after the
        // snapshot (Algorithm 1 lines 13-16).  Write-write overlap commits.
        // newer_than is exact here: commit DECISIONS are serialized by
        // commit_mu and enqueue_commit makes them observable (stamps +
        // pending queues) before the lock is released, so no conflicting
        // version can hide in another worker's unfinished apply.
        bool stale = false;
        for (const auto& [key, observed] : buffer.read_set()) {
          if (versioned.newer_than(key, snapshot_version)) {
            stale = true;
            break;
          }
        }
        if (stale) {
          ++local_aborts;
          pool.push_back(std::move(tx));
          continue;
        }

        // Commit decision: version = block position + 1 (lines 17-22).
        version = shared.included.size() + 1;
        chain::TxProfile profile;
        profile.reads = buffer.sorted_read_keys();
        profile.writes = buffer.write_set();
        profile.gas_used = r.gas_used;
        writes = profile.writes;

        versioned.enqueue_commit(writes, version);
        shared.included.push_back(std::move(tx));
        shared.profile.txs.push_back(std::move(profile));
        shared.fees.push_back(r.fee());
        shared.gas_used += r.gas_used;

        chain::Receipt receipt;
        receipt.success = (r.vm_status == evm::Status::kSuccess);
        receipt.gas_used = r.gas_used;
        receipt.cumulative_gas = shared.gas_used;
        receipt.logs = r.logs;
        shared.receipts.push_back(std::move(receipt));
        committed = true;
      }
      BP_ASSERT(committed);
      versioned.apply_commit(writes, version);
      // Acknowledge the commit: advances the sender's base nonce and
      // releases deferred same-sender successors (supersedes progress()).
      pool.committed(committed_sender, committed_nonce);
    }

    std::scoped_lock lk(stats_mu);
    stats.aborts += local_aborts;
    stats.not_ready += local_not_ready;
    stats.dropped += local_dropped;
  };

  if (config_.threads == 1) {
    worker_loop(0);  // degenerate case: run inline (benchmark baseline)
  } else {
    for (std::size_t t = 0; t < config_.threads; ++t)
      workers->submit([&worker_loop, t] { worker_loop(t); });
    workers->wait_idle();
  }

  // ---- finalize: materialize the post state and assemble the block ----
  ProposedBlock result;
  auto post = std::make_shared<state::WorldState>(pre);
  versioned.flatten_into(*post);
  for (std::size_t i = 0; i < shared.included.size(); ++i) {
    const auto cb_key = state::StateKey::balance(block_ctx.coinbase);
    post->set(cb_key, post->get(cb_key) + shared.fees[i]);
  }

  result.block.header.number = block_ctx.number;
  result.block.header.coinbase = block_ctx.coinbase;
  result.block.header.timestamp = block_ctx.timestamp;
  result.block.header.gas_limit = config_.block_gas_limit;
  result.block.header.gas_used = shared.gas_used;
  result.block.header.tx_root = chain::transactions_root(shared.included);
  result.block.transactions = std::move(shared.included);
  result.profile = std::move(shared.profile);
  result.receipts = std::move(shared.receipts);
  result.post_state = std::move(post);
  seal_commitment(result);

  stats.committed = result.block.transactions.size();
  stats.serial_gas = shared.gas_used;
  // The commit section is a serial resource: even with perfect worker
  // balance the makespan cannot beat the chained commit validations.
  stats.vtime_makespan = std::max(
      ledger.makespan(), shared.commit_events * config_.costs.commit_cost);
  stats.wall_ms = wall.elapsed_ms();
  stats.engine_used = config_.mode;
  result.stats = stats;
  return result;
}

ProposedBlock OccWsiVirtualEngine::propose(const state::WorldState& pre,
                                           const evm::BlockContext& block_ctx,
                                           txpool::TxPool& pool,
                                           ThreadPool* /*workers*/) {
  BP_ASSERT(config_.threads >= 1);
  const std::size_t W = config_.threads;
  Stopwatch wall;

  evm::BlockContext exec_ctx = block_ctx;
  if (config_.analysis_cache) exec_ctx.analysis_cache = config_.analysis_cache;

  state::VersionedState versioned(pre);
  ProposerStats stats{};
  std::vector<chain::Transaction> included;
  chain::BlockProfile block_profile;
  std::vector<chain::Receipt> receipts;
  std::vector<U256> fees;
  std::uint64_t gas_used = 0;
  std::unordered_map<Hash256, int> not_ready_attempts;

  // One in-flight execution per virtual worker.
  struct InFlight {
    chain::Transaction tx;
    evm::TxExecResult result;
    std::vector<state::StateKey> reads;  // sorted
    std::vector<std::pair<state::StateKey, U256>> writes;
    std::uint64_t snapshot_version = 0;
    bool busy = false;
  };
  std::vector<InFlight> in_flight(W);
  std::vector<std::uint64_t> clock(W, 0);  // virtual time per worker
  std::uint64_t final_makespan = 0;
  std::uint64_t commit_events = 0;
  bool block_full = false;

  // Completion-time event queue: (completion_time, worker).  Min-heap via
  // greater<> so the earliest completion pops first; worker index breaks
  // ties deterministically.
  using Event = std::pair<std::uint64_t, std::size_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

  // Execution scratch shared by all virtual workers (the event loop runs on
  // one real thread): the buffer's tables and the read cache are recycled
  // across every execution, including re-runs of aborted transactions.
  state::ReadCache read_cache;
  state::ExecBuffer buffer;

  // Starts the next transaction on worker w at virtual time `now`.
  // Executes immediately (real EVM run) against the snapshot committed as
  // of `now`; the completion event carries the result forward.
  auto try_start = [&](std::size_t w, std::uint64_t now) {
    while (!block_full) {
      auto popped = pool.pop();
      if (!popped.has_value()) return;  // worker idles (clock stays at now)
      InFlight& slot = in_flight[w];
      slot.tx = std::move(*popped);

      const std::uint64_t snapshot = versioned.committed_version();
      const state::SnapshotView view(versioned, snapshot, &read_cache);
      buffer.rebase(view);
      const evm::TxExecResult r =
          evm::execute_transaction(buffer, exec_ctx, slot.tx);

      if (r.status == evm::TxStatus::kInvalid) {
        ++stats.dropped;
        pool.dropped(slot.tx.from, slot.tx.nonce);
        continue;  // pop the next candidate at the same virtual time
      }
      if (r.status == evm::TxStatus::kNotReady) {
        ++stats.not_ready;
        if (++not_ready_attempts[slot.tx.hash()] >
            config_.max_not_ready_attempts) {
          ++stats.dropped;
          pool.dropped(slot.tx.from, slot.tx.nonce);
        } else {
          pool.defer(std::move(slot.tx));
        }
        continue;
      }

      slot.result = r;
      buffer.sorted_read_keys_into(slot.reads);   // reuses slot capacity
      buffer.write_set_into(slot.writes);
      slot.snapshot_version = snapshot;
      slot.busy = true;
      clock[w] = now;
      events.emplace(now + r.gas_used + config_.costs.commit_cost, w);
      return;
    }
  };

  for (std::size_t w = 0; w < W; ++w) try_start(w, 0);

  while (!events.empty()) {
    const auto [now, w] = events.top();
    events.pop();
    InFlight& slot = in_flight[w];
    BP_ASSERT(slot.busy);
    slot.busy = false;
    clock[w] = now;
    ++commit_events;

    // Block-capacity gate (Algorithm 1's GasLimit loop condition).
    if (gas_used + slot.result.gas_used > config_.block_gas_limit ||
        (config_.max_txs != 0 && included.size() >= config_.max_txs)) {
      block_full = true;
      pool.push_back(std::move(slot.tx));
      continue;  // let remaining in-flight events drain
    }

    // WSI validation: stale iff any read key gained a version committed
    // after this transaction's snapshot (== during its execution window).
    bool stale = false;
    for (const auto& key : slot.reads) {
      if (versioned.newer_than(key, slot.snapshot_version)) {
        stale = true;
        break;
      }
    }
    if (stale) {
      ++stats.aborts;
      pool.push_back(std::move(slot.tx));
      try_start(w, now);  // re-pop immediately; wasted work stays on clock
      continue;
    }

    // Commit at virtual time `now`.
    const std::uint64_t version = included.size() + 1;
    versioned.commit(slot.writes, version);
    chain::TxProfile profile;
    profile.reads = std::move(slot.reads);
    profile.writes = std::move(slot.writes);
    profile.gas_used = slot.result.gas_used;
    block_profile.txs.push_back(std::move(profile));
    const Address committed_sender = slot.tx.from;
    const std::uint64_t committed_nonce = slot.tx.nonce;
    included.push_back(std::move(slot.tx));
    fees.push_back(slot.result.fee());
    gas_used += slot.result.gas_used;

    chain::Receipt receipt;
    receipt.success = (slot.result.vm_status == evm::Status::kSuccess);
    receipt.gas_used = slot.result.gas_used;
    receipt.cumulative_gas = gas_used;
    receipt.logs = std::move(slot.result.logs);
    receipts.push_back(std::move(receipt));

    final_makespan = std::max(final_makespan, now);
    // Acknowledge the commit: advances the sender's base nonce and
    // releases deferred same-sender successors (supersedes progress()).
    pool.committed(committed_sender, committed_nonce);

    // Idle workers may now find work (deferred txs became poppable).
    try_start(w, now);
    for (std::size_t other = 0; other < W; ++other) {
      if (!in_flight[other].busy) try_start(other, std::max(clock[other], now));
    }
  }

  // ---- finalize ----
  ProposedBlock result;
  auto post = std::make_shared<state::WorldState>(pre);
  versioned.flatten_into(*post);
  const auto cb_key = state::StateKey::balance(block_ctx.coinbase);
  U256 total_fees;
  for (const U256& fee : fees) total_fees += fee;
  if (!total_fees.is_zero()) post->set(cb_key, post->get(cb_key) + total_fees);

  result.block.header.number = block_ctx.number;
  result.block.header.coinbase = block_ctx.coinbase;
  result.block.header.timestamp = block_ctx.timestamp;
  result.block.header.gas_limit = config_.block_gas_limit;
  result.block.header.gas_used = gas_used;
  result.block.header.tx_root = chain::transactions_root(included);
  result.block.transactions = std::move(included);
  result.profile = std::move(block_profile);
  result.receipts = std::move(receipts);
  result.post_state = std::move(post);
  seal_commitment(result);

  stats.committed = result.block.transactions.size();
  stats.serial_gas = gas_used;
  stats.vtime_makespan =
      std::max(final_makespan, commit_events * config_.costs.commit_cost);
  stats.wall_ms = wall.elapsed_ms();
  stats.engine_used = config_.mode;
  result.stats = stats;
  return result;
}

}  // namespace

namespace detail {

std::unique_ptr<ExecutionEngine> make_occ_wsi_engine(
    const ProposerConfig& config, bool host_threads) {
  if (host_threads) return std::make_unique<OccWsiHostEngine>(config);
  return std::make_unique<OccWsiVirtualEngine>(config);
}

}  // namespace detail
}  // namespace blockpilot::core
