// Micro-benchmarks of the substrate layers (google-benchmark).
//
// Not a paper figure — these quantify the building blocks so regressions
// in the substrate (hashing, trie, EVM dispatch) are visible independently
// of the concurrency-control results.
#include <benchmark/benchmark.h>

#include "core/blockpilot.hpp"
#include "evm/assembler.hpp"
#include "workload/contracts.hpp"

namespace blockpilot {
namespace {

void BM_Keccak32(benchmark::State& state) {
  std::vector<std::uint8_t> data(32, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::keccak256(std::span(data)));
  }
}
BENCHMARK(BM_Keccak32);

// Eight 32-byte inputs per call of the 8-lane AVX-512 kernel: one pass.
// items_per_second counts hashes; ns per hash is the iteration time over 8.
// Skipped (reported as an error) on a CPU without avx512f, where
// keccak256_batch hashes input by input and BM_Keccak32 covers it.
void BM_Keccak32x8(benchmark::State& state) {
  if (!crypto::detail::avx512_batch_supported()) {
    state.SkipWithError("CPU lacks avx512f");
    for (auto _ : state) {
    }
    return;
  }
  std::vector<std::vector<std::uint8_t>> data(8, std::vector<std::uint8_t>(32, 0xab));
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i][0] = static_cast<std::uint8_t>(i);
  const std::vector<std::span<const std::uint8_t>> inputs(data.begin(), data.end());
  std::vector<crypto::Digest> out(inputs.size());
  for (auto _ : state) {
    crypto::detail::keccak256_batch_avx512(inputs, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_Keccak32x8);

void BM_Keccak1K(benchmark::State& state) {
  std::vector<std::uint8_t> data(1024, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::keccak256(std::span(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_Keccak1K);

void BM_U256Mul(benchmark::State& state) {
  U256 a = U256::from_hex("0x123456789abcdef0fedcba987654321011223344556677");
  const U256 b = U256::from_hex("0xdeadbeefcafebabe0123456789abcdef");
  for (auto _ : state) {
    a *= b;
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_U256Mul);

void BM_U256Div(benchmark::State& state) {
  const U256 a = ~U256{};
  const U256 b = U256::from_hex("0x123456789abcdef0fedcba9876543210aabbccdd");
  for (auto _ : state) {
    benchmark::DoNotOptimize(a / b);
  }
}
BENCHMARK(BM_U256Div);

void BM_RlpEncodeTx(benchmark::State& state) {
  chain::Transaction tx;
  tx.from = Address::from_id(1);
  tx.to = Address::from_id(2);
  tx.nonce = 42;
  tx.gas_price = U256{100};
  tx.gas_limit = 21000;
  tx.value = U256{123456789};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tx.rlp_encode());
  }
}
BENCHMARK(BM_RlpEncodeTx);

void BM_TrieInsertAndRoot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    trie::MerklePatriciaTrie t;
    for (std::size_t i = 0; i < n; ++i) {
      const U256 key{i * 2654435761u};
      const auto kb = key.to_be_bytes();
      t.put(std::span(kb), std::span(kb).subspan(0, 8));
    }
    benchmark::DoNotOptimize(t.root_hash());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TrieInsertAndRoot)->Arg(16)->Arg(128)->Arg(1024);

void BM_EvmNativeTransfer(benchmark::State& state) {
  state::WorldState ws;
  const Address alice = Address::from_id(1), bob = Address::from_id(2);
  ws.set(state::StateKey::balance(alice), U256{1} .shl(96));
  evm::BlockContext block;
  block.coinbase = Address::from_id(0xFEE);
  chain::Transaction tx;
  tx.from = alice;
  tx.to = bob;
  tx.value = U256{1};
  tx.gas_limit = 25'000;
  tx.gas_price = U256{1};
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    tx.nonce = nonce++;
    const state::WorldStateView view(ws);
    state::ExecBuffer buffer(view);
    const auto r = evm::execute_transaction(buffer, block, tx);
    benchmark::DoNotOptimize(r);
    for (const auto& [key, value] : buffer.write_set()) ws.set(key, value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvmNativeTransfer);

void BM_EvmTokenTransfer(benchmark::State& state) {
  state::WorldState ws;
  const Address alice = Address::from_id(1), bob = Address::from_id(2);
  const Address token = Address::from_id(0x70);
  ws.set(state::StateKey::balance(alice), U256{1}.shl(96));
  ws.set_code(token, workload::token_contract());
  ws.set(state::StateKey::storage(token, alice.to_u256()), U256{1}.shl(96));
  evm::BlockContext block;
  block.coinbase = Address::from_id(0xFEE);
  chain::Transaction tx;
  tx.from = alice;
  tx.to = token;
  tx.data = workload::token_transfer_calldata(bob, U256{1});
  tx.gas_limit = 120'000;
  tx.gas_price = U256{1};
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    tx.nonce = nonce++;
    const state::WorldStateView view(ws);
    state::ExecBuffer buffer(view);
    const auto r = evm::execute_transaction(buffer, block, tx);
    benchmark::DoNotOptimize(r);
    for (const auto& [key, value] : buffer.write_set()) ws.set(key, value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EvmTokenTransfer);

void BM_DependencyGraphBuild(benchmark::State& state) {
  workload::WorkloadConfig wc = workload::preset_mainnet();
  workload::WorkloadGenerator gen(wc);
  const state::WorldState genesis = gen.genesis();
  evm::BlockContext ctx;
  ctx.coinbase = Address::from_id(0xFEE);
  const auto txs = gen.next_batch(132);
  const auto serial = core::execute_serial(genesis, ctx, std::span(txs));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched::build_dependency_graph(
        serial.exec.profile, sched::Granularity::kAccount));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 132);
}
BENCHMARK(BM_DependencyGraphBuild);

// The per-block state step of both nodes: copy the committed parent (here a
// mainnet genesis, ~2k accounts and 12 tokens x 2k slots) and apply one
// block's writes to the copy.  The copy is dropped inside the timing, as a
// discarded post state would be.
void BM_WorldStateCopy(benchmark::State& state) {
  workload::WorkloadGenerator gen(workload::preset_mainnet());
  state::WorldState genesis = gen.genesis();
  (void)genesis.state_root();  // a committed parent, memos in place
  evm::BlockContext ctx;
  ctx.coinbase = Address::from_id(0xFEE);
  const auto txs = gen.next_batch(132);
  const auto serial = core::execute_serial(genesis, ctx, std::span(txs));
  std::vector<std::pair<state::StateKey, U256>> writes;
  for (const chain::TxProfile& tx : serial.exec.profile.txs)
    writes.insert(writes.end(), tx.writes.begin(), tx.writes.end());
  for (auto _ : state) {
    state::WorldState post = genesis;
    for (const auto& [key, value] : writes) post.set(key, value);
    benchmark::DoNotOptimize(&post);
    benchmark::ClobberMemory();
  }
  state.counters["writes"] = static_cast<double>(writes.size());
}
BENCHMARK(BM_WorldStateCopy);

}  // namespace
}  // namespace blockpilot

BENCHMARK_MAIN();
