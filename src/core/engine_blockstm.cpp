// Block-STM execution engines (Gelashvili et al., PPoPP 2022; see
// docs/blockstm.md for the mapping onto BlockPilot).
//
// Where OCC-WSI decides the block order at runtime inside a serialized
// commit section, Block-STM FIXES the order up front — here, the pool's pop
// order — and makes speculation converge to the serial execution of that
// preset order:
//
//  1. candidate selection pops transactions (highest gas price first) until
//     the reserved gas (sum of gas limits) would exceed the block limit or
//     the tx cap is reached;
//  2. worker threads pull execution / validation tasks from the
//     collaborative scheduler (sched::BlockStmScheduler); incarnations
//     execute against the multi-version memory (state::MvMemory), where a
//     read observes the highest-indexed lower writer;
//  3. an execution that reads an aborted transaction's ESTIMATE footprint
//     suspends on it instead of speculating on known-dirty data; a
//     validation that observes a changed read set aborts the incarnation
//     and re-covers the validation wave behind it;
//  4. receipts materialize lazily, in preset order, as the scheduler's
//     stable prefix advances — there is no serialized commit section, which
//     is exactly the structural contrast the regime map in
//     bench_versioned_state measures against OCC-WSI.
//
// A transaction that cannot execute in its slot (nonce gap = kNotReady,
// invalid = kInvalid) records an EMPTY write set: it occupies its preset
// position but contributes nothing, mirroring the serial executor's
// drop_unincludable skip — which is what keeps the produced block
// bit-identical to a serial execution of the candidates in pop order (the
// cross-engine differential gate).
//
// Both realizations share every algorithmic step; they differ only in who
// runs the tasks:
//  * kBlockStm      — a discrete-event simulation over virtual time: task
//    outcomes are computed at dispatch (real EVM execution) and applied at
//    virtual completion, so writes become visible only after their virtual
//    execution window — deterministic abort dynamics, host-independent.
//  * kBlockStmHost  — real threads hammering scheduler + MvMemory (the
//    `stm` TSan gate).  By determinism of the final outcome the block is
//    bit-identical to kBlockStm's; stats (aborts, makespan) vary with host
//    scheduling.
#include <algorithm>
#include <queue>
#include <thread>

#include "core/execution_engine.hpp"
#include "sched/blockstm_scheduler.hpp"
#include "state/exec_buffer.hpp"
#include "state/versioned_state.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace blockpilot::core {
namespace {

using sched::BlockStmScheduler;
using Task = BlockStmScheduler::Task;

/// Final data of a transaction's latest executed incarnation.  The mutex
/// makes the host twin safe against a validation of incarnation i racing
/// the store of incarnation i+1; the incarnation field lets such a stale
/// validation detect itself.
struct alignas(64) TxSlot {
  std::mutex mu;
  std::uint32_t incarnation = 0;
  evm::TxExecResult result;
  std::vector<state::MvView::LogEntry> reads;
  std::vector<std::pair<state::StateKey, U256>> writes;
};

/// Everything one Block-STM proposal shares between workers.
struct StmProposal {
  StmProposal(const state::WorldState& pre, const evm::BlockContext& ctx,
              std::vector<chain::Transaction> candidates)
      : exec_ctx(ctx),
        txs(std::move(candidates)),
        mv(pre, txs.size()),
        scheduler(txs.size()),
        slots(std::make_unique<TxSlot[]>(txs.size())) {}

  evm::BlockContext exec_ctx;
  std::vector<chain::Transaction> txs;  // preset order (pool pop order)
  state::MvMemory mv;
  BlockStmScheduler scheduler;
  std::unique_ptr<TxSlot[]> slots;

  // Lazy commit: receipts/profile materialized in preset order as the
  // stable prefix advances (guarded by commit_mu; try-locked so workers
  // never convoy on it).
  std::mutex commit_mu;
  std::uint32_t committed_upto = 0;
  std::vector<chain::Transaction> included;
  chain::BlockProfile profile;
  std::vector<chain::Receipt> receipts;
  std::vector<U256> fees;
  std::uint64_t gas_used = 0;
};

/// Pops the block's candidates: highest price first, until the reserved gas
/// (sum of gas LIMITS — the pre-execution upper bound) would exceed the
/// block limit.  Every included transaction's gas_used <= gas_limit, so the
/// assembled block can never exceed the limit — the capacity gate runs
/// before execution, unlike OCC's post-execution gate.
std::vector<chain::Transaction> select_candidates(txpool::TxPool& pool,
                                                  const ProposerConfig& cfg) {
  std::vector<chain::Transaction> txs;
  std::uint64_t reserved = 0;
  while (cfg.max_txs == 0 || txs.size() < cfg.max_txs) {
    auto popped = pool.pop();
    if (!popped.has_value()) break;
    if (reserved + popped->gas_limit > cfg.block_gas_limit) {
      pool.push_back(std::move(*popped));
      break;
    }
    reserved += popped->gas_limit;
    txs.push_back(std::move(*popped));
  }
  return txs;
}

/// A finished-but-not-yet-applied execution: the DES twin computes this at
/// dispatch time and applies it at virtual completion time; the host twin
/// applies it immediately.
struct PendingExec {
  std::uint32_t txn = 0;
  std::uint32_t incarnation = 0;
  bool blocked = false;       // hit an ESTIMATE: suspend, discard result
  std::uint32_t blocking = 0;
  evm::TxExecResult result;
  std::vector<state::MvView::LogEntry> reads;
  std::vector<std::pair<state::StateKey, U256>> writes;
  std::uint64_t cost = 0;  // virtual cost of the attempt
};

PendingExec run_execution(StmProposal& p, const Task& t, state::MvView& view,
                          state::ExecBuffer& buffer) {
  view.begin(t.txn);
  buffer.rebase(view);
  const evm::TxExecResult r =
      evm::execute_transaction(buffer, p.exec_ctx, p.txs[t.txn]);
  PendingExec pe;
  pe.txn = t.txn;
  pe.incarnation = t.incarnation;
  pe.blocked = view.blocked();
  pe.blocking = view.blocking_txn();
  pe.cost = r.gas_used;
  if (!pe.blocked) {
    pe.result = r;
    pe.reads = view.read_log();
    // Excluded transactions (nonce gap / invalid) install an EMPTY write
    // set: they hold their preset slot but contribute nothing (see file
    // comment).
    if (r.status == evm::TxStatus::kIncluded) buffer.write_set_into(pe.writes);
  }
  return pe;
}

/// Publishes an execution's outcome (slot + multi-version memory) and
/// closes its task.  Returns the scheduler's follow-up task, if any.
Task apply_execution(StmProposal& p, PendingExec& pe) {
  TxSlot& slot = p.slots[pe.txn];
  {
    std::scoped_lock lk(slot.mu);
    slot.incarnation = pe.incarnation;
    slot.result = std::move(pe.result);
    slot.reads = std::move(pe.reads);
    slot.writes = pe.writes;
  }
  const bool wrote_new = p.mv.record(pe.txn, pe.incarnation, pe.writes);
  return p.scheduler.finish_execution(pe.txn, pe.incarnation, wrote_new);
}

/// Re-reads an incarnation's read set against the current multi-version
/// memory.  True = every read still observes the same version (valid).
bool validate_reads(StmProposal& p, std::uint32_t txn,
                    std::uint32_t incarnation) {
  std::vector<state::MvView::LogEntry> reads;
  {
    TxSlot& slot = p.slots[txn];
    std::scoped_lock lk(slot.mu);
    if (slot.incarnation != incarnation)
      return true;  // stale task: the abort attempt would fail anyway
    reads = slot.reads;
  }
  for (const auto& e : reads) {
    const state::MvMemory::ReadResult r = p.mv.read(e.key, txn);
    if (e.version.txn == state::MvMemory::Version::kBase) {
      if (r.kind != state::MvMemory::ReadKind::kBase) return false;
    } else if (r.kind != state::MvMemory::ReadKind::kOk ||
               !(r.version == e.version)) {
      return false;  // changed writer/incarnation, or now an ESTIMATE
    }
  }
  return true;
}

/// Applies a validation verdict and closes its task.  Returns the
/// follow-up task (the aborted transaction's re-execution), if any.
Task apply_validation(StmProposal& p, const Task& t, bool ok) {
  bool aborted = false;
  if (!ok && p.scheduler.try_validation_abort(t.txn, t.incarnation)) {
    // Leave the footprint as ESTIMATE markers so higher transactions
    // suspend instead of speculating through known-dirty data.
    p.mv.convert_to_estimates(t.txn);
    aborted = true;
  }
  return p.scheduler.finish_validation(t.txn, t.incarnation, aborted);
}

/// Lazily materializes receipts/profile for the stable prefix, in preset
/// order.  Any worker may call it at any time; try-lock keeps it off the
/// hot path when another worker is already committing.
void advance_stable(StmProposal& p) {
  const std::uint32_t target = p.scheduler.stable_prefix();
  std::unique_lock lk(p.commit_mu, std::try_to_lock);
  if (!lk.owns_lock()) return;
  while (p.committed_upto < target) {
    const std::uint32_t i = p.committed_upto;
    TxSlot& slot = p.slots[i];
    std::scoped_lock slk(slot.mu);
    if (slot.result.status == evm::TxStatus::kIncluded) {
      chain::TxProfile profile;
      profile.reads.reserve(slot.reads.size());
      for (const auto& e : slot.reads) profile.reads.push_back(e.key);
      std::sort(profile.reads.begin(), profile.reads.end(),
                state::state_key_less);  // log keys are already unique
      profile.writes = slot.writes;
      profile.gas_used = slot.result.gas_used;
      p.gas_used += slot.result.gas_used;

      chain::Receipt receipt;
      receipt.success = (slot.result.vm_status == evm::Status::kSuccess);
      receipt.gas_used = slot.result.gas_used;
      receipt.cumulative_gas = p.gas_used;
      receipt.logs = slot.result.logs;

      p.profile.txs.push_back(std::move(profile));
      p.receipts.push_back(std::move(receipt));
      p.included.push_back(p.txs[i]);
      p.fees.push_back(slot.result.fee());
    }
    ++p.committed_upto;
  }
}

/// Shared epilogue of both twins: pool acknowledgments, post-state
/// flattening, header assembly, sealing.
class BlockStmEngineBase : public ExecutionEngine {
 public:
  using ExecutionEngine::ExecutionEngine;

 protected:
  ProposedBlock finalize(StmProposal& p, const state::WorldState& pre,
                         const evm::BlockContext& block_ctx,
                         txpool::TxPool& pool, ProposerStats& stats) {
    advance_stable(p);
    BP_ASSERT(p.committed_upto == p.txs.size());

    // Acknowledge outcomes in preset order: commits first advance the
    // senders' base nonces, so a price-inverted successor deferred at a
    // lower index becomes poppable again for the next block.
    for (std::uint32_t i = 0; i < p.txs.size(); ++i) {
      chain::Transaction& tx = p.txs[i];
      switch (p.slots[i].result.status) {
        case evm::TxStatus::kIncluded:
          pool.committed(tx.from, tx.nonce);
          break;
        case evm::TxStatus::kNotReady:
          ++stats.not_ready;
          pool.defer(std::move(tx));
          break;
        case evm::TxStatus::kInvalid:
          ++stats.dropped;
          pool.dropped(tx.from, tx.nonce);
          break;
      }
    }

    ProposedBlock result;
    auto post = std::make_shared<state::WorldState>(pre);
    p.mv.flatten_into(*post);
    const auto cb_key = state::StateKey::balance(block_ctx.coinbase);
    U256 total_fees;
    for (const U256& fee : p.fees) total_fees += fee;
    if (!total_fees.is_zero())
      post->set(cb_key, post->get(cb_key) + total_fees);

    result.block.header.number = block_ctx.number;
    result.block.header.coinbase = block_ctx.coinbase;
    result.block.header.timestamp = block_ctx.timestamp;
    result.block.header.gas_limit = config_.block_gas_limit;
    result.block.header.gas_used = p.gas_used;
    result.block.header.tx_root = chain::transactions_root(p.included);
    result.block.transactions = std::move(p.included);
    result.profile = std::move(p.profile);
    result.receipts = std::move(p.receipts);
    result.post_state = std::move(post);
    seal_commitment(result);

    stats.committed = result.block.transactions.size();
    stats.aborts = p.scheduler.aborts();
    stats.serial_gas = p.gas_used;
    stats.engine_used = config_.mode;
    result.stats = stats;
    return result;
  }
};

// ---------------------------------------------------------------------------
// Virtual-time twin: discrete-event simulation of `threads` workers.

class BlockStmVirtualEngine final : public BlockStmEngineBase {
 public:
  using BlockStmEngineBase::BlockStmEngineBase;

  ProposedBlock propose(const state::WorldState& pre,
                        const evm::BlockContext& block_ctx,
                        txpool::TxPool& pool, ThreadPool* /*workers*/) override {
    BP_ASSERT(config_.threads >= 1);
    Stopwatch wall;
    evm::BlockContext exec_ctx = block_ctx;
    if (config_.analysis_cache)
      exec_ctx.analysis_cache = config_.analysis_cache;

    StmProposal p(pre, exec_ctx, select_candidates(pool, config_));
    ProposerStats stats{};
    const std::size_t W = config_.threads;

    if (!p.txs.empty()) {
      /// Per-virtual-worker in-flight task + its precomputed outcome.
      struct VWorker {
        bool busy = false;
        Task task;
        PendingExec exec;        // task.kind == kExecute
        bool verdict_ok = true;  // task.kind == kValidate
      };
      std::vector<VWorker> vworkers(W);
      std::vector<std::uint64_t> clock(W, 0);
      std::uint64_t final_time = 0;

      // Completion events: (time, worker), earliest first, worker index
      // breaking ties deterministically.
      using Event = std::pair<std::uint64_t, std::size_t>;
      std::priority_queue<Event, std::vector<Event>, std::greater<>> events;

      // The event loop runs on one real thread: scratch is shared.
      state::MvView view(p.mv);
      state::ExecBuffer buffer;

      // Computes the task's outcome NOW (dispatch) and schedules its
      // application at the virtual completion time, so writes/aborts
      // become visible only after their execution window elapsed.
      auto dispatch = [&](std::size_t w, const Task& t, std::uint64_t now) {
        VWorker& vw = vworkers[w];
        vw.busy = true;
        vw.task = t;
        clock[w] = now;
        if (t.kind == Task::Kind::kExecute) {
          vw.exec = run_execution(p, t, view, buffer);
          events.emplace(now + vw.exec.cost, w);
        } else {
          vw.verdict_ok = validate_reads(p, t.txn, t.incarnation);
          events.emplace(now + config_.costs.commit_cost, w);
        }
      };
      auto try_dispatch = [&](std::size_t w, std::uint64_t now) {
        if (vworkers[w].busy) return;
        const Task t = p.scheduler.next_task();
        if (t) dispatch(w, t, now);
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

        if (vw.task.kind == Task::Kind::kExecute && vw.exec.blocked) {
          if (!p.scheduler.add_dependency(vw.task.txn, vw.exec.blocking)) {
            // The blocker resolved during the window: retry immediately
            // with the same incarnation (still this worker's task).
            dispatch(w, vw.task, now);
            continue;
          }
          // Parked; the resume path re-issues the execution.
        } else {
          Task follow = vw.task.kind == Task::Kind::kExecute
                            ? apply_execution(p, vw.exec)
                            : apply_validation(p, vw.task, vw.verdict_ok);
          if (follow) dispatch(w, follow, now);
        }
        advance_stable(p);
        for (std::size_t other = 0; other < W; ++other)
          try_dispatch(other, std::max(clock[other], now));
      }
      BP_ASSERT(p.scheduler.done());
      stats.vtime_makespan = final_time;
    }

    stats.wall_ms = wall.elapsed_ms();
    return finalize(p, pre, block_ctx, pool, stats);
  }
};

// ---------------------------------------------------------------------------
// Host-threads twin: real workers, same algorithm.

class BlockStmHostEngine final : public BlockStmEngineBase {
 public:
  using BlockStmEngineBase::BlockStmEngineBase;

  ProposedBlock propose(const state::WorldState& pre,
                        const evm::BlockContext& block_ctx,
                        txpool::TxPool& pool, ThreadPool* workers) override {
    BP_ASSERT(config_.threads >= 1);
    BP_ASSERT(workers != nullptr);
    BP_ASSERT(workers->size() >= config_.threads);
    Stopwatch wall;
    evm::BlockContext exec_ctx = block_ctx;
    if (config_.analysis_cache)
      exec_ctx.analysis_cache = config_.analysis_cache;

    StmProposal p(pre, exec_ctx, select_candidates(pool, config_));
    ProposerStats stats{};
    vtime::WorkLedger ledger(config_.threads);

    auto worker_fn = [&](std::size_t lane) {
      state::MvView view(p.mv);
      state::ExecBuffer buffer;
      while (!p.scheduler.done()) {
        Task t = p.scheduler.next_task();
        if (!t) {
          advance_stable(p);
          std::this_thread::yield();
          continue;
        }
        while (t) {
          if (t.kind == Task::Kind::kExecute) {
            PendingExec pe = run_execution(p, t, view, buffer);
            ledger.add(lane, pe.cost);
            if (pe.blocked) {
              if (p.scheduler.add_dependency(t.txn, pe.blocking)) t = Task{};
              // else: the blocker resolved — re-run the same task.
            } else {
              t = apply_execution(p, pe);
            }
          } else {
            const bool ok = validate_reads(p, t.txn, t.incarnation);
            ledger.add(lane, config_.costs.commit_cost);
            t = apply_validation(p, t, ok);
          }
        }
        advance_stable(p);
      }
    };

    if (!p.txs.empty()) {
      if (config_.threads == 1) {
        worker_fn(0);
      } else {
        for (std::size_t t = 0; t < config_.threads; ++t)
          workers->submit([&worker_fn, t] { worker_fn(t); });
        workers->wait_idle();
      }
      stats.vtime_makespan = ledger.makespan();
    }

    stats.wall_ms = wall.elapsed_ms();
    return finalize(p, pre, block_ctx, pool, stats);
  }
};

}  // namespace

namespace detail {

std::unique_ptr<ExecutionEngine> make_blockstm_engine(
    const ProposerConfig& config, bool host_threads) {
  if (host_threads) return std::make_unique<BlockStmHostEngine>(config);
  return std::make_unique<BlockStmVirtualEngine>(config);
}

}  // namespace detail
}  // namespace blockpilot::core
