// Block-STM validator replay (docs/blockstm.md §8): preset-order
// multi-version re-execution of a received block, gated bit-identical to
// the subgraph-LPT oracle (validator.cpp) by the engine-differential
// matrix in tests/test_engine_matrix.cpp.
//
// The block fixes the preset order, so the validator's job is exactly the
// Block-STM proposer's inner loop minus candidate selection — with one
// advantage the proposer never has: the BlockProfile broadcast with the
// block already names every transaction's write set.  Pre-seeding those
// footprints as ESTIMATE markers (MvMemory::seed_estimates, the DiPETrans
// idea of shipping the leader's conflict analysis to followers) turns the
// first incarnations' discovery phase into scheduled suspension: a reader
// of a seeded key parks on its true dependency instead of speculating,
// aborting, and re-executing.  With an honest profile the replay converges
// with ZERO aborts and ZERO validation waves — every transaction executes
// once, suspensions tracking exactly the block's real dependency edges.
//
// Seeds are strictly a scheduling hint.  They register as incarnation 0's
// write set, so the first real record() replaces them the way any
// re-incarnation would: actually-written keys flip to real entries, stale
// seeded keys are erased via the write-set-shrink path, and an unseeded
// actual write triggers the ordinary validation wave.  A stale profile
// therefore degrades to extra suspensions/waves (ValidatorStats::stm_*) —
// never to a wrong result, which is what the seeding tests gate.
//
// Both validators accept exactly the blocks whose serial preset-order
// execution matches the profile (per-tx gas + read/write sets, §4.4) and
// the header; Block-STM's determinism theorem makes the converged replay
// equal that serial execution, so verdict, state root, gas and receipts
// are bit-identical to the oracle by construction.  The profile checks and
// header checks below reuse the oracle's strings and ordering verbatim.
//
// Like the proposer engine, the replay ships as two twins sharing this
// file's preparation and applier phases: kBlockStm is a discrete-event
// simulation of `threads` virtual workers (bit-reproducible virtual
// makespan, independent of host core count), kBlockStmHost races real pool
// threads through the same scheduler (the sanitizer target).
#include <algorithm>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_set>
#include <utility>

#include "core/serial_executor.hpp"
#include "core/validator.hpp"
#include "sched/blockstm_scheduler.hpp"
#include "state/exec_buffer.hpp"
#include "state/versioned_state.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::core {
namespace {

using sched::BlockStmScheduler;
using Task = BlockStmScheduler::Task;
using state::StateKey;

/// Latest executed incarnation of one transaction (same discipline as the
/// proposer engine: the mutex covers a validation of incarnation i racing
/// the store of incarnation i+1; the incarnation field lets a stale
/// validation detect itself).
struct alignas(64) TxSlot {
  std::mutex mu;
  std::uint32_t incarnation = 0;
  evm::TxExecResult result;
  std::vector<state::MvView::LogEntry> reads;
  std::vector<std::pair<StateKey, U256>> writes;
};

/// Re-reads an incarnation's read set against the multi-version memory.
/// True = every read still observes the same version.
bool validate_reads(const state::MvMemory& mv, TxSlot& slot,
                    std::uint32_t txn, std::uint32_t incarnation) {
  std::vector<state::MvView::LogEntry> reads;
  {
    std::scoped_lock lk(slot.mu);
    if (slot.incarnation != incarnation)
      return true;  // stale task: the abort attempt would fail anyway
    reads = slot.reads;
  }
  for (const auto& e : reads) {
    const state::MvMemory::ReadResult r = mv.read(e.key, txn);
    if (e.version.txn == state::MvMemory::Version::kBase) {
      if (r.kind != state::MvMemory::ReadKind::kBase) return false;
    } else if (r.kind != state::MvMemory::ReadKind::kOk ||
               !(r.version == e.version)) {
      return false;  // changed writer/incarnation, or now an ESTIMATE
    }
  }
  return true;
}

}  // namespace

namespace detail {

ValidationOutcome validate_block_stm(const ValidatorConfig& config,
                                     const state::WorldState& pre,
                                     const chain::Block& block,
                                     const chain::BlockProfile& profile,
                                     ThreadPool& workers, bool host_threads) {
  BP_ASSERT(config.threads >= 1);
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
  // The dependency-graph stats stay profile-derived so the adaptive signal
  // and the figure surfaces are engine-independent.
  const sched::DependencyGraph graph =
      sched::build_dependency_graph(profile, config.granularity);
  outcome.stats.subgraphs = graph.subgraphs.size();
  outcome.stats.largest_subgraph_ratio = graph.largest_subgraph_ratio();
  outcome.stats.critical_path_gas = graph.critical_path_gas();

  evm::BlockContext block_ctx;
  block_ctx.number = block.header.number;
  block_ctx.timestamp = block.header.timestamp;
  block_ctx.coinbase = block.header.coinbase;
  block_ctx.gas_limit = block.header.gas_limit;
  block_ctx.analysis_cache = config.analysis_cache;

  state::MvMemory mv(pre, n);
  BlockStmScheduler scheduler(n);
  auto slots = std::make_unique<TxSlot[]>(n);
  vtime::WorkLedger ledger(config.threads);

  // ESTIMATE pre-seeding from the broadcast write sets (file comment).
  // The override (tests) may be stale or mis-sized; clamp to the block.
  const chain::BlockProfile& seeds = config.stm_seed_override != nullptr
                                         ? *config.stm_seed_override
                                         : profile;
  const std::size_t seedable = std::min<std::size_t>(seeds.txs.size(), n);
  for (std::size_t i = 0; i < seedable; ++i)
    mv.seed_estimates(static_cast<std::uint32_t>(i), seeds.txs[i].writes);

  // ---- Tx Execution phase: the Block-STM loop over the preset order ----
  // Two twins, mirroring the proposer engine (engine_blockstm.cpp): the
  // host twin races real pool threads through the collaborative scheduler
  // (kBlockStmHost, the thread-safety mode); the DES twin simulates
  // `threads` virtual workers on the calling thread, so the virtual
  // makespan is bit-reproducible and meaningful even where the host has
  // fewer cores than lanes.
  std::uint64_t exec_makespan = 0;

  // Publishes one finished execution attempt into its slot + the
  // multi-version memory and closes the task.  Returns the scheduler's
  // follow-up task, if any.  A transaction that cannot execute in its slot
  // records an EMPTY write set: the replay still converges (to a state the
  // profile check then rejects) instead of wedging the scheduler.
  auto publish_execution =
      [&](const Task& t, evm::TxExecResult&& r,
          std::vector<state::MvView::LogEntry> reads,
          const std::vector<std::pair<StateKey, U256>>& writes) -> Task {
    TxSlot& slot = slots[t.txn];
    {
      std::scoped_lock lk(slot.mu);
      slot.incarnation = t.incarnation;
      slot.result = std::move(r);
      slot.reads = std::move(reads);
      slot.writes = writes;
    }
    const bool wrote_new = mv.record(t.txn, t.incarnation, writes);
    return scheduler.finish_execution(t.txn, t.incarnation, wrote_new);
  };
  // Applies a validation verdict and closes the task; returns the aborted
  // transaction's re-execution, if any.
  auto apply_validation = [&](const Task& t, bool ok) -> Task {
    bool aborted = false;
    if (!ok && scheduler.try_validation_abort(t.txn, t.incarnation)) {
      mv.convert_to_estimates(t.txn);
      aborted = true;
    }
    return scheduler.finish_validation(t.txn, t.incarnation, aborted);
  };

  auto worker_fn = [&](std::size_t lane) {
    state::MvView view(mv);
    state::ExecBuffer buffer;
    // I/O model (§5.4), mirroring the oracle: without prefetching each
    // first-touch read on this lane charges io_read_cost.
    std::unordered_set<StateKey> lane_cache;
    while (!scheduler.done()) {
      Task t = scheduler.next_task();
      if (!t) {
        std::this_thread::yield();
        continue;
      }
      while (t) {
        if (t.kind == Task::Kind::kExecute) {
          view.begin(t.txn);
          buffer.rebase(view);
          evm::TxExecResult r = evm::execute_transaction(
              buffer, block_ctx, block.transactions[t.txn]);
          ledger.add(lane, r.gas_used);
          if (view.blocked()) {
            // Hit an ESTIMATE: park on the true dependency, discard the
            // attempt.  A failed park means the blocker resolved during
            // execution — re-run the same incarnation immediately.
            if (scheduler.add_dependency(t.txn, view.blocking_txn()))
              t = Task{};
            continue;
          }
          if (!config.prefetch) {
            std::size_t cold_reads = 0;
            for (const auto& e : view.read_log())
              if (lane_cache.insert(e.key).second) ++cold_reads;
            ledger.add(lane, cold_reads * config.costs.io_read_cost);
          }
          std::vector<std::pair<StateKey, U256>> writes;
          if (r.status == evm::TxStatus::kIncluded)
            buffer.write_set_into(writes);
          t = publish_execution(t, std::move(r), view.read_log(), writes);
        } else {
          const bool ok =
              validate_reads(mv, slots[t.txn], t.txn, t.incarnation);
          ledger.add(lane, config.costs.commit_cost);
          t = apply_validation(t, ok);
        }
      }
    }
  };

  // DES twin: one real thread drives `threads` virtual workers.  A task's
  // outcome is computed at dispatch time against the current multi-version
  // memory, but its effects apply only at the virtual completion time —
  // the execution window during which concurrent dispatches cannot see it,
  // exactly like the proposer's kBlockStm mode.
  auto run_virtual = [&] {
    const std::size_t W = config.threads;
    struct VWorker {
      bool busy = false;
      Task task;
      bool blocked = false;       // task.kind == kExecute
      std::uint32_t blocking = 0;
      evm::TxExecResult result;
      std::vector<state::MvView::LogEntry> reads;
      std::vector<std::pair<StateKey, U256>> writes;
      std::uint64_t cost = 0;
      bool verdict_ok = true;     // task.kind == kValidate
      std::unordered_set<StateKey> lane_cache;  // §5.4 I/O model per lane
    };
    std::vector<VWorker> vworkers(W);
    std::vector<std::uint64_t> clock(W, 0);
    std::uint64_t final_time = 0;

    // Completion events: (time, worker), earliest first, worker index
    // breaking ties deterministically.
    using Event = std::pair<std::uint64_t, std::size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

    state::MvView view(mv);
    state::ExecBuffer buffer;

    auto dispatch = [&](std::size_t w, const Task& t, std::uint64_t now) {
      VWorker& vw = vworkers[w];
      vw.busy = true;
      vw.task = t;
      clock[w] = now;
      if (t.kind == Task::Kind::kExecute) {
        view.begin(t.txn);
        buffer.rebase(view);
        evm::TxExecResult r = evm::execute_transaction(
            buffer, block_ctx, block.transactions[t.txn]);
        vw.blocked = view.blocked();
        vw.blocking = view.blocking_txn();
        vw.cost = r.gas_used;
        vw.reads.clear();
        vw.writes.clear();
        if (!vw.blocked) {
          vw.result = std::move(r);
          vw.reads = view.read_log();
          if (vw.result.status == evm::TxStatus::kIncluded)
            buffer.write_set_into(vw.writes);
          if (!config.prefetch) {
            std::size_t cold_reads = 0;
            for (const auto& e : vw.reads)
              if (vw.lane_cache.insert(e.key).second) ++cold_reads;
            vw.cost += cold_reads * config.costs.io_read_cost;
          }
        }
        events.emplace(now + vw.cost, w);
      } else {
        vw.verdict_ok = validate_reads(mv, slots[t.txn], t.txn, t.incarnation);
        events.emplace(now + config.costs.commit_cost, w);
      }
    };
    auto try_dispatch = [&](std::size_t w, std::uint64_t now) {
      if (vworkers[w].busy) return;
      // Real workers spin on next_task, so a wasted cursor claim (the
      // target was mid-flight) costs them nothing; retry in zero virtual
      // time until a task arrives or the cursors genuinely exhaust.
      do {
        const Task t = scheduler.next_task();
        if (t) {
          dispatch(w, t, now);
          return;
        }
      } while (scheduler.claimable());
    };

    for (std::size_t w = 0; w < W; ++w) try_dispatch(w, 0);

    while (!events.empty()) {
      const auto [now, w] = events.top();
      events.pop();
      VWorker& vw = vworkers[w];
      BP_ASSERT(vw.busy);
      vw.busy = false;
      clock[w] = now;
      final_time = std::max(final_time, now);

      if (vw.task.kind == Task::Kind::kExecute && vw.blocked) {
        if (!scheduler.add_dependency(vw.task.txn, vw.blocking)) {
          // The blocker resolved during the window: retry immediately with
          // the same incarnation (still this worker's task).
          dispatch(w, vw.task, now);
          continue;
        }
        // Parked; the resume path re-issues the execution.
      } else {
        Task follow =
            vw.task.kind == Task::Kind::kExecute
                ? publish_execution(vw.task, std::move(vw.result),
                                    std::move(vw.reads), vw.writes)
                : apply_validation(vw.task, vw.verdict_ok);
        if (follow) dispatch(w, follow, now);
      }
      for (std::size_t other = 0; other < W; ++other)
        try_dispatch(other, std::max(clock[other], now));
    }
    exec_makespan = final_time;
  };

  if (n > 0) {
    if (!host_threads) {
      run_virtual();
    } else if (config.threads == 1) {
      worker_fn(0);  // deterministic single-worker replay
    } else {
      for (std::size_t t = 0; t < config.threads; ++t)
        workers.submit([&worker_fn, t] { worker_fn(t); });
      workers.wait_idle();
    }
    if (host_threads) exec_makespan = ledger.makespan();
    BP_ASSERT(scheduler.done());
  }

  outcome.stats.stm_aborts = scheduler.aborts();
  outcome.stats.stm_suspensions = scheduler.suspensions();
  outcome.stats.stm_validation_waves = scheduler.validation_waves();

  // ---- Block Validation phase (preset order, on the calling thread) ----
  // The replay has quiesced: slots are stable, no locks needed.  Checks and
  // reject strings mirror the oracle's applier exactly.
  auto post = std::make_shared<state::WorldState>(pre);
  std::uint64_t applier_chain = 0;
  std::uint64_t gas_used = 0;
  std::vector<StateKey> observed_reads;
  for (std::size_t i = 0; i < n; ++i) {
    TxSlot& slot = slots[i];
    if (slot.result.status != evm::TxStatus::kIncluded) {
      outcome.reject_reason = "transaction " + std::to_string(i) +
                              " failed to execute in scheduled replay";
      outcome.stats.wall_ms = wall.elapsed_ms();
      return outcome;
    }
    applier_chain += config.costs.apply_cost;

    const chain::TxProfile& expected = profile.txs[i];
    if (slot.result.gas_used != expected.gas_used) {
      outcome.reject_reason = "gas mismatch at tx " + std::to_string(i);
      outcome.stats.wall_ms = wall.elapsed_ms();
      return outcome;
    }
    observed_reads.clear();
    observed_reads.reserve(slot.reads.size());
    for (const auto& e : slot.reads) observed_reads.push_back(e.key);
    std::sort(observed_reads.begin(), observed_reads.end(),
              state::state_key_less);  // log keys are already unique
    if (observed_reads != expected.reads) {
      outcome.reject_reason = "read-set mismatch at tx " + std::to_string(i);
      outcome.stats.wall_ms = wall.elapsed_ms();
      return outcome;
    }
    bool writes_match = slot.writes.size() == expected.writes.size();
    for (std::size_t w = 0; writes_match && w < slot.writes.size(); ++w) {
      writes_match = slot.writes[w].first == expected.writes[w].first &&
                     slot.writes[w].second == expected.writes[w].second;
    }
    if (!writes_match) {
      outcome.reject_reason = "write-set mismatch at tx " + std::to_string(i);
      outcome.stats.wall_ms = wall.elapsed_ms();
      return outcome;
    }

    apply_tx_writes(*post, slot.writes, block_ctx.coinbase,
                    slot.result.fee());
    gas_used += slot.result.gas_used;

    chain::Receipt receipt;
    receipt.success = (slot.result.vm_status == evm::Status::kSuccess);
    receipt.gas_used = slot.result.gas_used;
    receipt.cumulative_gas = gas_used;
    receipt.logs = std::move(slot.result.logs);
    outcome.exec.receipts.push_back(std::move(receipt));
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
  if (config.seed_directory != nullptr)
    post->adopt_block_seeds(
        config.seed_directory->for_block(block.header.hash()));
  if (config.commit_pipeline != nullptr) {
    // ---- Block Commitment, asynchronous (see oracle) ----
    outcome.commit = config.commit_pipeline->submit(post);
  } else {
    const Hash256 root = post->state_root();
    if (root != block.header.state_root) {
      outcome.reject_reason = "state root mismatch";
      outcome.stats.wall_ms = wall.elapsed_ms();
      return outcome;
    }
    outcome.exec.state_root = root;
  }

  outcome.valid = true;
  outcome.exec.profile = profile;
  outcome.exec.gas_used = gas_used;
  outcome.exec.post_state = std::move(post);
  outcome.stats.serial_gas = gas_used;
  outcome.stats.vtime_makespan = std::max(exec_makespan, applier_chain);
  outcome.stats.wall_ms = wall.elapsed_ms();
  return outcome;
}

}  // namespace detail
}  // namespace blockpilot::core
