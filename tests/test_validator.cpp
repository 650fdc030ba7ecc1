// Validator tests (paper §4.3/§4.4, Algorithm 2): scheduled parallel replay
// must accept exactly the blocks whose re-execution matches the profile and
// header, and reject tampered ones.
#include <gtest/gtest.h>

#include "core/blockpilot.hpp"

namespace blockpilot::core {
namespace {

evm::BlockContext ctx_for(std::uint64_t height) {
  evm::BlockContext ctx;
  ctx.number = height;
  ctx.timestamp = 1'700'000'000 + height * 12;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  return ctx;
}

struct ValidatorFixture : ::testing::Test {
  workload::WorkloadGenerator gen{workload::preset_mainnet()};
  state::WorldState genesis = gen.genesis();

  /// Builds an honest block with the serial reference proposer.
  BlockBundle honest_block(std::size_t txs, std::uint64_t height = 1) {
    const SerialResult r = execute_serial(genesis, ctx_for(height),
                                          std::span(batch(txs)));
    BlockBundle bundle;
    bundle.block = seal_block(ctx_for(height), r.exec, r.included);
    bundle.profile = r.exec.profile;
    return bundle;
  }

  const std::vector<chain::Transaction>& batch(std::size_t n) {
    if (cached_.size() != n) cached_ = gen.next_batch(n);
    return cached_;
  }

  ValidationOutcome validate(
      const BlockBundle& bundle, std::size_t threads,
      ValidatorEngine engine = ValidatorEngine::kSubgraphLpt) {
    ValidatorConfig cfg;
    cfg.threads = threads;
    cfg.engine = engine;
    BlockValidator validator(cfg);
    ThreadPool workers(threads);
    return validator.validate(genesis, bundle.block, bundle.profile, workers);
  }

 private:
  std::vector<chain::Transaction> cached_;
};

TEST_F(ValidatorFixture, AcceptsHonestBlockSingleThread) {
  const auto bundle = honest_block(50);
  const auto outcome = validate(bundle, 1);
  EXPECT_TRUE(outcome.valid) << outcome.reject_reason;
  EXPECT_EQ(outcome.exec.state_root, bundle.block.header.state_root);
}

TEST_F(ValidatorFixture, AcceptsHonestBlockParallel) {
  const auto bundle = honest_block(100);
  for (const std::size_t threads : {2u, 4u, 8u, 16u}) {
    const auto outcome = validate(bundle, threads);
    EXPECT_TRUE(outcome.valid)
        << "threads=" << threads << ": " << outcome.reject_reason;
    EXPECT_EQ(outcome.exec.state_root, bundle.block.header.state_root);
    EXPECT_EQ(outcome.exec.receipts.size(), bundle.block.transactions.size());
  }
}

TEST_F(ValidatorFixture, RejectsTamperedStateRoot) {
  auto bundle = honest_block(30);
  bundle.block.header.state_root.bytes[0] ^= 0xff;
  const auto outcome = validate(bundle, 4);
  EXPECT_FALSE(outcome.valid);
  EXPECT_EQ(outcome.reject_reason, "state root mismatch");
}

TEST_F(ValidatorFixture, RejectsTamperedGasUsed) {
  auto bundle = honest_block(30);
  bundle.block.header.gas_used += 1;
  const auto outcome = validate(bundle, 4);
  EXPECT_FALSE(outcome.valid);
}

TEST_F(ValidatorFixture, RejectsTamperedProfileReadSet) {
  auto bundle = honest_block(30);
  // Fabricate an extra read in some profile entry: the observed set will
  // not match (§4.4's honest-proposer check).
  bundle.profile.txs[5].reads.push_back(
      state::StateKey::balance(Address::from_id(0xDEAD)));
  std::sort(bundle.profile.txs[5].reads.begin(),
            bundle.profile.txs[5].reads.end(), state::state_key_less);
  const auto outcome = validate(bundle, 4);
  EXPECT_FALSE(outcome.valid);
  EXPECT_NE(outcome.reject_reason.find("read-set mismatch"),
            std::string::npos);
}

TEST_F(ValidatorFixture, RejectsTamperedProfileWriteValue) {
  auto bundle = honest_block(30);
  ASSERT_FALSE(bundle.profile.txs[3].writes.empty());
  bundle.profile.txs[3].writes[0].second += U256{1};
  const auto outcome = validate(bundle, 4);
  EXPECT_FALSE(outcome.valid);
}

TEST_F(ValidatorFixture, RejectsTamperedProfileGas) {
  auto bundle = honest_block(30);
  bundle.profile.txs[7].gas_used += 1;
  const auto outcome = validate(bundle, 4);
  EXPECT_FALSE(outcome.valid);
  // Either the gas check or (if rescheduled differently) a downstream check
  // fires; the reason must mention a mismatch.
  EXPECT_NE(outcome.reject_reason.find("mismatch"), std::string::npos);
}

TEST_F(ValidatorFixture, RejectsTamperedTransactionValue) {
  auto bundle = honest_block(30);
  bundle.block.transactions[4].value += U256{1};
  const auto outcome = validate(bundle, 4);
  EXPECT_FALSE(outcome.valid);
}

TEST_F(ValidatorFixture, RejectsTamperedReceiptsRoot) {
  auto bundle = honest_block(30);
  bundle.block.header.receipts_root.bytes[3] ^= 0x10;
  const auto outcome = validate(bundle, 4);
  EXPECT_FALSE(outcome.valid);
  EXPECT_EQ(outcome.reject_reason, "receipts root mismatch");
}

TEST_F(ValidatorFixture, RejectsTamperedLogsBloom) {
  auto bundle = honest_block(30);
  // Poison the bloom with an address no log mentions.
  chain::Bloom tampered = bundle.block.header.logs_bloom;
  const Address ghost = Address::from_id(0x60057);
  tampered.add(std::span(ghost.bytes));
  if (tampered == bundle.block.header.logs_bloom) GTEST_SKIP();
  bundle.block.header.logs_bloom = tampered;
  const auto outcome = validate(bundle, 4);
  EXPECT_FALSE(outcome.valid);
  EXPECT_EQ(outcome.reject_reason, "logs bloom mismatch");
}

TEST_F(ValidatorFixture, PrefetchOffStillValidatesButSlower) {
  const auto bundle = honest_block(80);
  ValidatorConfig on_cfg;
  on_cfg.threads = 8;
  ValidatorConfig off_cfg = on_cfg;
  off_cfg.prefetch = false;
  ThreadPool workers(8);
  const auto on =
      BlockValidator(on_cfg).validate(genesis, bundle.block, bundle.profile, workers);
  const auto off = BlockValidator(off_cfg).validate(genesis, bundle.block,
                                                    bundle.profile, workers);
  ASSERT_TRUE(on.valid) << on.reject_reason;
  ASSERT_TRUE(off.valid) << off.reject_reason;
  EXPECT_EQ(on.exec.state_root, off.exec.state_root);
  EXPECT_GT(on.stats.virtual_speedup(), off.stats.virtual_speedup());
}

TEST_F(ValidatorFixture, RejectsProfileSizeMismatch) {
  auto bundle = honest_block(10);
  bundle.profile.txs.pop_back();
  const auto outcome = validate(bundle, 4);
  EXPECT_FALSE(outcome.valid);
  EXPECT_EQ(outcome.reject_reason, "profile size mismatch");
}

TEST_F(ValidatorFixture, EmptyBlockValidates) {
  const auto bundle = honest_block(0);
  const auto outcome = validate(bundle, 4);
  EXPECT_TRUE(outcome.valid) << outcome.reject_reason;
}

TEST_F(ValidatorFixture, StatsExposeScheduleShape) {
  const auto bundle = honest_block(120);
  const auto outcome = validate(bundle, 8);
  ASSERT_TRUE(outcome.valid) << outcome.reject_reason;
  EXPECT_GT(outcome.stats.subgraphs, 1u);
  EXPECT_GT(outcome.stats.largest_subgraph_ratio, 0.0);
  EXPECT_LE(outcome.stats.largest_subgraph_ratio, 1.0);
  EXPECT_GT(outcome.stats.critical_path_gas, 0u);
  EXPECT_GE(outcome.stats.virtual_speedup(), 1.0);
}

TEST_F(ValidatorFixture, KeyGranularityAlsoValidates) {
  const auto bundle = honest_block(60);
  ValidatorConfig cfg;
  cfg.threads = 4;
  cfg.granularity = sched::Granularity::kKey;
  BlockValidator validator(cfg);
  ThreadPool workers(4);
  const auto outcome =
      validator.validate(genesis, bundle.block, bundle.profile, workers);
  EXPECT_TRUE(outcome.valid) << outcome.reject_reason;
  EXPECT_EQ(outcome.exec.state_root, bundle.block.header.state_root);
}

TEST_F(ValidatorFixture, ValidatesOccWsiProposedBlock) {
  // End-to-end handshake: OCC-WSI proposer -> scheduled validator.
  txpool::TxPool pool;
  pool.add_all(gen.next_batch(90));
  ProposerConfig pc;
  pc.threads = 4;
  OccWsiProposer proposer(pc);
  ThreadPool workers(8);
  const ProposedBlock proposed =
      proposer.propose(genesis, ctx_for(1), pool, workers);

  ValidatorConfig vc;
  vc.threads = 8;
  BlockValidator validator(vc);
  const auto outcome =
      validator.validate(genesis, proposed.block, proposed.profile, workers);
  EXPECT_TRUE(outcome.valid) << outcome.reject_reason;
  EXPECT_EQ(outcome.exec.state_root, proposed.block.header.state_root);
}

// ---- Block-STM validator engine (docs/blockstm.md §8) ---------------------
// The cross-engine identity itself (verdicts/roots/gas/receipts bit-equal
// across the full proposer x validator matrix) is gated in
// test_engine_matrix.cpp; these cover the engine knob on this fixture.

TEST_F(ValidatorFixture, BlockStmAcceptsHonestBlockAcrossThreads) {
  const auto bundle = honest_block(100);
  for (const ValidatorEngine engine :
       {ValidatorEngine::kBlockStm, ValidatorEngine::kBlockStmHost}) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      const auto outcome = validate(bundle, threads, engine);
      EXPECT_TRUE(outcome.valid)
          << "threads=" << threads << ": " << outcome.reject_reason;
      EXPECT_EQ(outcome.exec.state_root, bundle.block.header.state_root);
      EXPECT_EQ(outcome.exec.receipts.size(),
                bundle.block.transactions.size());
      EXPECT_EQ(outcome.stats.engine_used, engine);
      // Honest profile -> the pre-seeded estimates route every dependency
      // through suspension; nothing aborts and no validation wave fires.
      // Holds for both twins: suspension count varies with scheduling,
      // aborts/waves do not.
      EXPECT_EQ(outcome.stats.stm_aborts, 0u) << "threads=" << threads;
      EXPECT_EQ(outcome.stats.stm_validation_waves, 0u)
          << "threads=" << threads;
    }
  }
}

TEST_F(ValidatorFixture, BlockStmVirtualMakespanIsReproducibleAndScales) {
  // The DES twin's virtual makespan must be a pure function of (block,
  // threads) — bit-equal on repeat runs regardless of host scheduling —
  // and adding virtual workers must never lengthen the replay.
  const auto bundle = honest_block(100);
  std::uint64_t prev_makespan = 0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    const auto a = validate(bundle, threads, ValidatorEngine::kBlockStm);
    const auto b = validate(bundle, threads, ValidatorEngine::kBlockStm);
    ASSERT_TRUE(a.valid) << a.reject_reason;
    EXPECT_EQ(a.stats.vtime_makespan, b.stats.vtime_makespan)
        << "threads=" << threads;
    EXPECT_EQ(a.stats.stm_suspensions, b.stats.stm_suspensions)
        << "threads=" << threads;
    if (prev_makespan != 0) {
      EXPECT_LE(a.stats.vtime_makespan, prev_makespan)
          << "threads=" << threads;
    }
    prev_makespan = a.stats.vtime_makespan;
  }
}

TEST_F(ValidatorFixture, BlockStmRejectsTamperedStateRoot) {
  auto bundle = honest_block(30);
  bundle.block.header.state_root.bytes[0] ^= 0xff;
  for (const ValidatorEngine engine :
       {ValidatorEngine::kBlockStm, ValidatorEngine::kBlockStmHost}) {
    const auto outcome = validate(bundle, 4, engine);
    EXPECT_FALSE(outcome.valid);
    EXPECT_EQ(outcome.reject_reason, "state root mismatch");
  }
}

TEST_F(ValidatorFixture, BlockStmRejectsTamperedProfileReadSet) {
  auto bundle = honest_block(30);
  bundle.profile.txs[5].reads.push_back(
      state::StateKey::balance(Address::from_id(0xDEAD)));
  std::sort(bundle.profile.txs[5].reads.begin(),
            bundle.profile.txs[5].reads.end(), state::state_key_less);
  const auto outcome = validate(bundle, 4, ValidatorEngine::kBlockStm);
  EXPECT_FALSE(outcome.valid);
  EXPECT_NE(outcome.reject_reason.find("read-set mismatch"),
            std::string::npos);
}

TEST_F(ValidatorFixture, BlockStmRejectsProfileSizeMismatch) {
  auto bundle = honest_block(10);
  bundle.profile.txs.pop_back();
  const auto outcome = validate(bundle, 4, ValidatorEngine::kBlockStm);
  EXPECT_FALSE(outcome.valid);
  EXPECT_EQ(outcome.reject_reason, "profile size mismatch");
}

TEST_F(ValidatorFixture, BlockStmEmptyBlockValidates) {
  const auto bundle = honest_block(0);
  const auto outcome = validate(bundle, 4, ValidatorEngine::kBlockStm);
  EXPECT_TRUE(outcome.valid) << outcome.reject_reason;
}

TEST_F(ValidatorFixture, RejectsTransactionsTheHeaderDoesNotCommitTo) {
  // Two independent native transfers with equal gas: swapping them (and
  // their profile entries) leaves every post-state, receipt and bloom
  // unchanged, so only the header's tx_root can tell the lists apart.
  genesis = state::WorldState{};
  for (std::uint64_t id = 1; id <= 2; ++id)
    genesis.set(state::StateKey::balance(Address::from_id(id)),
                U256{1}.shl(80));
  std::vector<chain::Transaction> txs(2);
  for (std::uint64_t i = 0; i < 2; ++i) {
    txs[i].from = Address::from_id(1 + i);
    txs[i].to = Address::from_id(3 + i);
    txs[i].value = U256{5 + i};
    txs[i].gas_limit = 21'000;
    txs[i].gas_price = U256{1};
  }
  const SerialResult r = execute_serial(genesis, ctx_for(1), std::span(txs));
  ASSERT_EQ(r.included.size(), 2u);
  ASSERT_EQ(r.exec.profile.txs[0].gas_used, r.exec.profile.txs[1].gas_used);
  BlockBundle bundle;
  bundle.block = seal_block(ctx_for(1), r.exec, r.included);
  bundle.profile = r.exec.profile;

  for (const auto engine :
       {ValidatorEngine::kSubgraphLpt, ValidatorEngine::kBlockStm}) {
    const auto honest = validate(bundle, 2, engine);
    EXPECT_TRUE(honest.valid) << honest.reject_reason;
  }
  std::swap(bundle.block.transactions[0], bundle.block.transactions[1]);
  std::swap(bundle.profile.txs[0], bundle.profile.txs[1]);
  for (const auto engine :
       {ValidatorEngine::kSubgraphLpt, ValidatorEngine::kBlockStm}) {
    const auto outcome = validate(bundle, 2, engine);
    EXPECT_FALSE(outcome.valid);
    EXPECT_EQ(outcome.reject_reason, "transactions root mismatch");
  }
}

TEST_F(ValidatorFixture, AdaptiveResolvesToAFixedEngine) {
  const auto bundle = honest_block(60);
  const auto outcome = validate(bundle, 4, ValidatorEngine::kAdaptive);
  ASSERT_TRUE(outcome.valid) << outcome.reject_reason;
  EXPECT_NE(outcome.stats.engine_used, ValidatorEngine::kAdaptive);
  // preset_mainnet sits below the regime-map threshold (~27.5 % largest
  // subgraph vs 33 %), so the stateless per-block pick stays on the oracle.
  EXPECT_EQ(outcome.stats.engine_used, ValidatorEngine::kSubgraphLpt)
      << "ratio=" << outcome.stats.largest_subgraph_ratio;
}

// Sweep: honest blocks across conflict regimes and thread counts validate
// with identical roots.
struct VParam {
  std::size_t threads;
  int preset;
};

class ValidatorSweep : public ::testing::TestWithParam<VParam> {};

TEST_P(ValidatorSweep, HonestBlocksValidate) {
  const auto [threads, preset] = GetParam();
  workload::WorkloadConfig cfg = preset == 0   ? workload::preset_mainnet()
                                 : preset == 1 ? workload::preset_low_conflict()
                                               : workload::preset_high_conflict();
  cfg.seed = 555 + static_cast<std::uint64_t>(preset);
  workload::WorkloadGenerator gen(cfg);
  state::WorldState genesis = gen.genesis();
  const auto txs = gen.next_batch(70);
  const SerialResult r = execute_serial(genesis, ctx_for(1), std::span(txs));
  const chain::Block block = seal_block(ctx_for(1), r.exec, r.included);

  ValidatorConfig vc;
  vc.threads = threads;
  BlockValidator validator(vc);
  ThreadPool workers(threads);
  const auto outcome =
      validator.validate(genesis, block, r.exec.profile, workers);
  EXPECT_TRUE(outcome.valid) << outcome.reject_reason;
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByRegime, ValidatorSweep,
    ::testing::Values(VParam{1, 0}, VParam{2, 0}, VParam{4, 0}, VParam{8, 0},
                      VParam{16, 0}, VParam{4, 1}, VParam{4, 2},
                      VParam{16, 2}));

}  // namespace
}  // namespace blockpilot::core
