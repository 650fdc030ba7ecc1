#include "core/validator.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <unordered_set>

#include "core/serial_executor.hpp"
#include "state/exec_buffer.hpp"
#include "state/read_view.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::core {
namespace {

using state::StateKey;

/// Parent state + a worker's accumulated writes.  Sound because conflicting
/// transactions are co-located on one thread: no transaction ever reads a
/// key another thread writes.
class ThreadOverlay final : public state::ReadView {
 public:
  explicit ThreadOverlay(const state::WorldState& base) noexcept
      : base_(base) {}

  U256 read(const StateKey& key) const override {
    const auto it = writes_.find(key);
    if (it != writes_.end()) return it->second;
    return base_.get(key);
  }
  std::shared_ptr<const state::Bytes> code(const Address& addr) const override {
    return base_.code(addr);
  }
  Hash256 code_hash(const Address& addr) const override {
    return base_.code_hash(addr);
  }

  void merge(const std::vector<std::pair<StateKey, U256>>& writes) {
    for (const auto& [key, value] : writes) writes_[key] = value;
  }

 private:
  const state::WorldState& base_;
  std::unordered_map<StateKey, U256> writes_;
};

struct TxOutcome {
  evm::TxExecResult result;
  std::vector<StateKey> reads;                        // sorted
  std::vector<std::pair<StateKey, U256>> writes;      // sorted
};

/// Slot board the applier drains in block order.
struct ResultBoard {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::optional<TxOutcome>> slots;
  std::atomic<bool> failed{false};
  std::string fail_reason;

  void post(std::size_t index, TxOutcome outcome) {
    {
      std::scoped_lock lk(mu);
      slots[index] = std::move(outcome);
    }
    cv.notify_all();
  }

  void fail(const std::string& reason) {
    {
      std::scoped_lock lk(mu);
      if (!failed.load(std::memory_order_relaxed)) fail_reason = reason;
    }
    failed.store(true, std::memory_order_release);
    cv.notify_all();
  }

  /// Blocks until slot `index` is posted or a failure is flagged; nullopt
  /// on failure.
  std::optional<TxOutcome> take(std::size_t index) {
    std::unique_lock lk(mu);
    cv.wait(lk, [&] {
      return slots[index].has_value() ||
             failed.load(std::memory_order_acquire);
    });
    if (!slots[index].has_value()) return std::nullopt;
    auto out = std::move(*slots[index]);
    slots[index].reset();
    return out;
  }
};

bool same_reads(const std::vector<StateKey>& observed,
                const std::vector<StateKey>& expected) {
  return observed == expected;  // both sorted by state_key_less
}

bool same_writes(const std::vector<std::pair<StateKey, U256>>& observed,
                 const std::vector<std::pair<StateKey, U256>>& expected) {
  if (observed.size() != expected.size()) return false;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (!(observed[i].first == expected[i].first) ||
        observed[i].second != expected[i].second)
      return false;
  }
  return true;
}

/// The paper's Algorithm 2 (subgraph-LPT scheduled replay) — the frozen
/// oracle the Block-STM path (validator_stm.cpp) is gated against.
ValidationOutcome validate_subgraph_lpt(const ValidatorConfig& config_,
                                        const state::WorldState& pre,
                                        const chain::Block& block,
                                        const chain::BlockProfile& profile,
                                        ThreadPool& workers) {
  BP_ASSERT(config_.threads >= 1);
  ValidationOutcome outcome;
  Stopwatch wall;

  const std::size_t n = block.transactions.size();
  if (profile.txs.size() != n) {
    outcome.reject_reason = "profile size mismatch";
    return outcome;
  }
  // A relayed announcement could pair a header with a transaction list it
  // does not commit to; reject that before executing anything.
  if (chain::transactions_root(block.transactions) != block.header.tx_root) {
    outcome.reject_reason = "transactions root mismatch";
    outcome.stats.wall_ms = wall.elapsed_ms();
    return outcome;
  }

  // ---- Preparation phase ----
  const sched::DependencyGraph graph =
      sched::build_dependency_graph(profile, config_.granularity);
  const sched::ThreadPlan plan = sched::lpt_schedule(graph, config_.threads);

  outcome.stats.subgraphs = graph.subgraphs.size();
  outcome.stats.largest_subgraph_ratio = graph.largest_subgraph_ratio();
  outcome.stats.critical_path_gas = graph.critical_path_gas();

  evm::BlockContext block_ctx;
  block_ctx.number = block.header.number;
  block_ctx.timestamp = block.header.timestamp;
  block_ctx.coinbase = block.header.coinbase;
  block_ctx.gas_limit = block.header.gas_limit;
  block_ctx.analysis_cache = config_.analysis_cache;

  ResultBoard board;
  board.slots.resize(n);
  vtime::WorkLedger ledger(config_.threads);

  // ---- Tx Execution phase (worker pool) ----
  auto run_lane = [&](std::size_t lane) {
    const auto& my_txs = plan.per_thread[lane];
    ThreadOverlay overlay(pre);
    // I/O model (§5.4): without prefetching, each first-touch state read on
    // this worker stalls on the backing store; the prefetcher eliminates
    // those stalls by warming the cache from the block profile during the
    // preparation phase (off the execution critical path).
    std::unordered_set<StateKey> lane_cache;
    // Dispatch overhead: one per subgraph assigned to this lane.
    std::uint64_t lane_subgraphs = 0;
    for (const auto& sg : graph.subgraphs) {
      if (!sg.tx_indices.empty() &&
          std::binary_search(my_txs.begin(), my_txs.end(),
                             sg.tx_indices.front()))
        ++lane_subgraphs;
    }
    ledger.add(lane, lane_subgraphs * config_.costs.dispatch_cost);

    // One buffer per lane, reset per transaction: keeps the read/write
    // table allocations hot instead of reallocating for every replay.
    state::ExecBuffer buffer(overlay);
    for (const std::size_t i : my_txs) {
      if (board.failed.load(std::memory_order_acquire)) return;
      buffer.reset();
      const evm::TxExecResult r = evm::execute_transaction(
          buffer, block_ctx, block.transactions[i]);
      if (r.status != evm::TxStatus::kIncluded) {
        board.fail("transaction " + std::to_string(i) +
                   " failed to execute in scheduled replay");
        return;
      }
      ledger.add(lane, r.gas_used);

      TxOutcome out;
      out.result = r;
      buffer.sorted_read_keys_into(out.reads);
      buffer.write_set_into(out.writes);

      if (!config_.prefetch) {
        std::size_t cold_reads = 0;
        for (const auto& key : out.reads)
          if (lane_cache.insert(key).second) ++cold_reads;
        ledger.add(lane, cold_reads * config_.costs.io_read_cost);
      }

      overlay.merge(out.writes);
      board.post(i, std::move(out));
    }
  };

  if (config_.threads == 1) {
    run_lane(0);
  } else {
    for (std::size_t t = 0; t < config_.threads; ++t)
      workers.submit([&run_lane, t] { run_lane(t); });
  }

  // ---- Block Validation phase (applier, on the calling thread) ----
  auto post = std::make_shared<state::WorldState>(pre);
  std::uint64_t applier_chain = 0;
  std::uint64_t gas_used = 0;
  for (std::size_t i = 0; i < n && !board.failed; ++i) {
    auto out = board.take(i);
    if (!out.has_value()) break;
    applier_chain += config_.costs.apply_cost;

    const chain::TxProfile& expected = profile.txs[i];
    if (out->result.gas_used != expected.gas_used) {
      board.fail("gas mismatch at tx " + std::to_string(i));
      break;
    }
    if (!same_reads(out->reads, expected.reads)) {
      board.fail("read-set mismatch at tx " + std::to_string(i));
      break;
    }
    if (!same_writes(out->writes, expected.writes)) {
      board.fail("write-set mismatch at tx " + std::to_string(i));
      break;
    }

    apply_tx_writes(*post, out->writes, block_ctx.coinbase,
                    out->result.fee());
    gas_used += out->result.gas_used;

    chain::Receipt receipt;
    receipt.success = (out->result.vm_status == evm::Status::kSuccess);
    receipt.gas_used = out->result.gas_used;
    receipt.cumulative_gas = gas_used;
    receipt.logs = std::move(out->result.logs);
    outcome.exec.receipts.push_back(std::move(receipt));
  }

  if (config_.threads > 1) workers.wait_idle();

  if (board.failed.load(std::memory_order_acquire)) {
    outcome.valid = false;
    outcome.reject_reason = board.fail_reason;
    outcome.stats.wall_ms = wall.elapsed_ms();
    return outcome;
  }

  if (gas_used != block.header.gas_used) {
    outcome.reject_reason = "header gas_used mismatch";
    outcome.stats.wall_ms = wall.elapsed_ms();
    return outcome;
  }

  const std::vector<chain::Bloom> blooms =
      chain::receipt_blooms(outcome.exec.receipts);
  if (chain::receipts_root(outcome.exec.receipts, blooms) !=
      block.header.receipts_root) {
    outcome.reject_reason = "receipts root mismatch";
    outcome.stats.wall_ms = wall.elapsed_ms();
    return outcome;
  }
  if (!(chain::block_bloom(blooms) == block.header.logs_bloom)) {
    outcome.reject_reason = "logs bloom mismatch";
    outcome.stats.wall_ms = wall.elapsed_ms();
    return outcome;
  }

  outcome.expected_state_root = block.header.state_root;
  if (config_.seed_directory != nullptr)
    post->adopt_block_seeds(config_.seed_directory->for_block(
        block.header.hash()));
  if (config_.commit_pipeline != nullptr) {
    // ---- Block Commitment, asynchronous ----
    // The root computation moves onto the commit pipeline; `valid` is
    // provisional (execution-level) until await_commit() compares the root
    // against the header.  The post state is sealed — nothing mutates it
    // after submission.
    outcome.commit = config_.commit_pipeline->submit(post);
  } else {
    const Hash256 root = post->state_root();
    if (root != block.header.state_root) {
      outcome.reject_reason = "state root mismatch";
      outcome.stats.wall_ms = wall.elapsed_ms();
      return outcome;
    }
    outcome.exec.state_root = root;
  }

  // ---- ready for Block Commitment (caller appends to the ledger) ----
  outcome.valid = true;
  outcome.exec.profile = profile;
  outcome.exec.gas_used = gas_used;
  outcome.exec.post_state = std::move(post);
  outcome.stats.serial_gas = gas_used;
  outcome.stats.vtime_makespan = std::max(ledger.makespan(), applier_chain);
  outcome.stats.wall_ms = wall.elapsed_ms();
  return outcome;
}

}  // namespace

ValidationOutcome BlockValidator::validate(const state::WorldState& pre,
                                           const chain::Block& block,
                                           const chain::BlockProfile& profile,
                                           ThreadPool& workers) {
  ValidatorEngine engine = config_.engine;
  if (engine == ValidatorEngine::kAdaptive) {
    // The block's own profile carries the signal (it ships with the block,
    // so it is available before execution starts).  A malformed profile
    // resolves to the oracle, which rejects it the same way either engine
    // would.
    double ratio = 0.0;
    if (!profile.txs.empty() &&
        profile.txs.size() == block.transactions.size()) {
      ratio = sched::build_dependency_graph(profile, config_.granularity)
                  .largest_subgraph_ratio();
    }
    engine = ratio > config_.adaptive_threshold ? ValidatorEngine::kBlockStm
                                                : ValidatorEngine::kSubgraphLpt;
  }
  ValidationOutcome outcome =
      engine == ValidatorEngine::kSubgraphLpt
          ? validate_subgraph_lpt(config_, pre, block, profile, workers)
          : detail::validate_block_stm(
                config_, pre, block, profile, workers,
                engine == ValidatorEngine::kBlockStmHost);
  outcome.stats.engine_used = engine;
  return outcome;
}

bool ValidationOutcome::await_commit() {
  if (!commit.valid()) return valid;  // inline-committed (or rejected early)
  if (!valid) return false;           // execution already failed
  const commit::CommitResult& r = commit.get();
  exec.state_root = r.state_root;
  if (r.state_root != expected_state_root) {
    valid = false;
    reject_reason = "state root mismatch";
  }
  return valid;
}

}  // namespace blockpilot::core
