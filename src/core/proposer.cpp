#include "core/proposer.hpp"

#include "sched/depgraph.hpp"
#include "support/assert.hpp"

namespace blockpilot::core {
namespace {

/// Per-block engine selection between the two DES twins (engine_select.hpp):
/// OCC-WSI while the previous block's largest-subgraph ratio stays at or
/// below the threshold, Block-STM above it.  The ratio is derived from the
/// profile of the block this engine just proposed — a pure function of the
/// chain content, so a seeded run is bit-reproducible.  The signal lives
/// instance-local by default; drivers that construct a fresh engine per
/// proposal park it in config.adaptive_ratio_slot instead.
class AdaptiveEngine final : public ExecutionEngine {
 public:
  explicit AdaptiveEngine(const ProposerConfig& config)
      : ExecutionEngine(config) {
    ProposerConfig occ = config;
    occ.mode = ScheduleMode::kVirtualTime;
    ProposerConfig stm = config;
    stm.mode = ScheduleMode::kBlockStm;
    occ_ = detail::make_occ_wsi_engine(occ, /*host_threads=*/false);
    stm_ = detail::make_blockstm_engine(stm, /*host_threads=*/false);
  }

  ProposedBlock propose(const state::WorldState& pre,
                        const evm::BlockContext& block_ctx,
                        txpool::TxPool& pool, ThreadPool* workers) override {
    double& ratio = config_.adaptive_ratio_slot != nullptr
                        ? *config_.adaptive_ratio_slot
                        : local_ratio_;
    const bool use_stm = ratio > config_.adaptive_threshold;
    ProposedBlock blk = (use_stm ? *stm_ : *occ_)
                            .propose(pre, block_ctx, pool, workers);
    blk.stats.engine_used =
        use_stm ? ScheduleMode::kBlockStm : ScheduleMode::kVirtualTime;
    // An empty block carries no signal; keep the previous ratio so a quiet
    // interval doesn't reset the regime.
    if (!blk.profile.txs.empty()) {
      ratio = sched::build_dependency_graph(blk.profile,
                                            sched::Granularity::kAccount)
                  .largest_subgraph_ratio();
    }
    blk.stats.largest_subgraph_ratio = ratio;
    return blk;
  }

 private:
  std::unique_ptr<ExecutionEngine> occ_;
  std::unique_ptr<ExecutionEngine> stm_;
  double local_ratio_ = 0.0;
};

}  // namespace

std::unique_ptr<ExecutionEngine> make_execution_engine(
    const ProposerConfig& config) {
  if (config.mode == ScheduleMode::kAdaptive)
    return std::make_unique<AdaptiveEngine>(config);
  if (is_block_stm(config.mode))
    return detail::make_blockstm_engine(config, is_host_threads(config.mode));
  return detail::make_occ_wsi_engine(config, is_host_threads(config.mode));
}

ProposedBlock BlockProposer::propose_virtual(const state::WorldState& pre,
                                             const evm::BlockContext& block_ctx,
                                             txpool::TxPool& pool) {
  if (!is_host_threads(config_.mode))
    return engine_->propose(pre, block_ctx, pool, nullptr);
  ProposerConfig cfg = config_;
  cfg.mode = is_block_stm(config_.mode) ? ScheduleMode::kBlockStm
                                        : ScheduleMode::kVirtualTime;
  return make_execution_engine(cfg)->propose(pre, block_ctx, pool, nullptr);
}

ProposedBlock BlockProposer::propose_host_threads(
    const state::WorldState& pre, const evm::BlockContext& block_ctx,
    txpool::TxPool& pool, ThreadPool& workers) {
  if (is_host_threads(config_.mode))
    return engine_->propose(pre, block_ctx, pool, &workers);
  ProposerConfig cfg = config_;
  cfg.mode = is_block_stm(config_.mode) ? ScheduleMode::kBlockStmHost
                                        : ScheduleMode::kHostThreads;
  return make_execution_engine(cfg)->propose(pre, block_ctx, pool, &workers);
}

void ExecutionEngine::seal_commitment(ProposedBlock& result) {
  // Each receipt's bloom is built once: the logs bloom is needed now, and
  // the receipts root re-encodes the same blooms.
  std::vector<chain::Bloom> blooms = chain::receipt_blooms(result.receipts);
  result.block.header.logs_bloom = chain::block_bloom(blooms);
  if (config_.commit_pipeline == nullptr) {
    result.block.header.state_root = result.post_state->state_root();
    result.block.header.receipts_root =
        chain::receipts_root(result.receipts, blooms);
    return;
  }
  // Receipts root rides along as the aux root so the whole commitment —
  // not just the state root — leaves the proposer's critical path.
  result.commit = config_.commit_pipeline->submit(
      result.post_state,
      [receipts = result.receipts, blooms = std::move(blooms)] {
        return chain::receipts_root(receipts, blooms);
      });
}

void ProposedBlock::await_seal() {
  if (!commit.valid()) return;
  const commit::CommitResult& r = commit.get();
  block.header.state_root = r.state_root;
  block.header.receipts_root = r.aux_root;
}

}  // namespace blockpilot::core
