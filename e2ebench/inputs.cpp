#include "inputs.hpp"

#include <unordered_set>
#include <utility>

#include "crypto/keccak.hpp"
#include "evm/assembler.hpp"
#include "slot.hpp"
#include "support/rng.hpp"
#include "workload/generator.hpp"
#include "workload/traffic.hpp"

namespace e2e {
namespace {

using bp::Address;
using bp::U256;
using bp::chain::Transaction;
using bp::state::StateKey;


// compute: distinct senders per block, so only the flagged share of calls
// (the shared counter in slot 0) conflicts.
constexpr std::size_t kComputeSenders = 512;
constexpr std::size_t kComputeTxsPerBlock = 24;
constexpr std::uint64_t kComputeItersMin = 400;
constexpr std::uint64_t kComputeItersMax = 1200;
constexpr double kComputeSharedChance = 0.1;
constexpr std::uint64_t kComputeGasLimit = 400'000;

bp::txpool::TxPoolConfig pool_config(std::size_t max_txs, unsigned bump) {
  bp::txpool::TxPoolConfig cfg;
  cfg.max_txs = max_txs;
  cfg.max_bytes = max_txs * 256;
  cfg.enforce_nonce_order = true;
  cfg.replace_bump_percent = bump;
  cfg.collect_evicted = true;  // the proposer node re-broadcasts evictions
  return cfg;
}

void traffic_inputs(Inputs& in, bp::workload::TrafficProfile profile,
                    std::size_t blocks, std::size_t ticks_per_block) {
  bp::workload::TrafficGenerator gen(std::move(profile), in.seed);
  in.genesis = std::make_shared<const bp::state::WorldState>(gen.genesis());
  in.arrivals.resize(blocks);
  for (auto& batch : in.arrivals)
    for (std::size_t t = 0; t < ticks_per_block; ++t)
      for (Transaction& tx : gen.tick()) batch.push_back(std::move(tx));
  in.senders.reserve(gen.num_senders());
  for (std::size_t i = 0; i < gen.num_senders(); ++i)
    in.senders.push_back(gen.sender(i));
}

void compute_inputs(Inputs& in, std::size_t blocks) {
  bp::Xoshiro256 rng(in.seed ^ 0xC0A9'07E5'0000'0001ULL);
  const U256 funds = U256{1'000'000'000ULL} * U256{1'000'000'000'000ULL};
  bp::state::WorldState ws;
  for (std::size_t i = 0; i < kComputeSenders; ++i) {
    in.senders.push_back(Address::from_id(0x5E'0000 + i));
    ws.set(StateKey::balance(in.senders.back()), funds);
  }
  ws.set_code(compute_contract_address(), compute_contract());
  in.genesis = std::make_shared<const bp::state::WorldState>(std::move(ws));

  // A seeded sender order walked round-robin: consecutive blocks use
  // disjoint senders, and each sender's nonces stay contiguous.
  std::vector<std::size_t> order(kComputeSenders);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size() - 1; i > 0; --i)
    std::swap(order[i], order[rng.range(0, i)]);
  std::vector<std::uint64_t> nonce(kComputeSenders, 0);

  in.arrivals.resize(blocks);
  std::size_t cursor = 0;
  for (auto& batch : in.arrivals) {
    for (std::size_t k = 0; k < kComputeTxsPerBlock; ++k) {
      const std::size_t s = order[cursor++ % order.size()];
      Transaction tx;
      tx.from = in.senders[s];
      tx.nonce = nonce[s]++;
      tx.to = compute_contract_address();
      tx.gas_price = U256{rng.range(10, 200)};
      tx.gas_limit = kComputeGasLimit;
      const std::uint64_t iters = rng.range(kComputeItersMin, kComputeItersMax);
      tx.data = compute_calldata(iters, rng.chance(kComputeSharedChance));
      batch.push_back(std::move(tx));
    }
  }
}

}  // namespace

const char* workload_name(Workload w) noexcept {
  switch (w) {
    case Workload::kMainnet: return "mainnet";
    case Workload::kFeewar: return "feewar";
    case Workload::kCompute: return "compute";
  }
  return "?";
}

bool parse_workload(std::string_view name, Workload& out) noexcept {
  for (const Workload w :
       {Workload::kMainnet, Workload::kFeewar, Workload::kCompute}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

// Chains are kept short: the more chain runs a process makes, the more of
// its blocks have one run in a fast phase of a shared host (README.md).
std::size_t blocks_for(Workload w) noexcept {
  switch (w) {
    case Workload::kMainnet: return 32;
    case Workload::kFeewar: return 32;
    case Workload::kCompute: return 32;
  }
  return 0;
}

Inputs make_inputs(Workload w, std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  in.seed = seed;
  const std::size_t blocks = blocks_for(w);
  switch (w) {
    case Workload::kMainnet: {
      // Steady arrivals of 128 tx per interval over the calibrated mainnet
      // mix; block gas admits every one of them, so the pool drains.
      bp::workload::TrafficProfile p = bp::workload::traffic_steady();
      p.base = bp::workload::preset_mainnet();
      p.base.jitter_block_size = false;
      p.txs_per_tick = 16;
      in.pool = pool_config(4096, p.replace_bump_percent);
      traffic_inputs(in, std::move(p), blocks, 2);
      break;
    }
    case Workload::kFeewar: {
      // Re-bids and fee spikes over one hot DEX: 64 fresh tx per interval,
      // spread over 8 traffic ticks so re-bids and spikes land many times a
      // block, against 48-tx blocks and a 64-slot pool (1.33x overload).
      bp::workload::TrafficProfile p = bp::workload::traffic_fee_frenzy();
      p.base = bp::workload::preset_high_conflict();
      p.base.jitter_block_size = false;
      p.txs_per_tick = 2;
      in.pool = pool_config(64, p.replace_bump_percent);
      in.max_txs_per_block = 48;
      traffic_inputs(in, std::move(p), blocks, 8);
      break;
    }
    case Workload::kCompute:
      in.pool = pool_config(4096, 10);
      compute_inputs(in, blocks);
      break;
  }

  // Hash the genesis root once here so neither node pays for it.
  const bp::Hash256 root = in.genesis->state_root();
  bp::crypto::Keccak256 h;
  h.update(root.bytes);
  std::unordered_set<Slot, SlotHash> slots;
  for (const auto& batch : in.arrivals) {
    const std::uint64_t n = batch.size();
    h.update(std::span(reinterpret_cast<const std::uint8_t*>(&n), sizeof n));
    for (const Transaction& tx : batch) {
      h.update(tx.rlp_encode());
      slots.insert(Slot{tx.from, tx.nonce});
    }
  }
  in.digest = bp::Hash256{h.finalize()};
  in.offered_slots = slots.size();
  return in;
}

// ---- compute contract ----

Bytes compute_contract() {
  using bp::evm::Op;
  bp::evm::Assembler a;
  a.push(0).push(0).op(Op::MSTORE);                          // acc = 0
  a.push(0).op(Op::CALLDATALOAD).push(0x20).op(Op::MSTORE);  // counter
  a.label("loop");
  a.push(0x20).op(Op::MLOAD).op(Op::ISZERO);
  a.push_label("done").op(Op::JUMPI);
  // acc' = ((acc << 3) + ((acc >> 5) ^ (acc & 0xff))) + counter*3 + 1
  a.push(0).op(Op::MLOAD);
  a.op(Op::DUP1).push(3).op(Op::SHL);
  a.op(Op::SWAP1).op(Op::DUP1).push(5).op(Op::SHR);
  a.op(Op::SWAP1).push(0xff).op(Op::AND);
  a.op(Op::XOR).op(Op::ADD);
  a.push(0x20).op(Op::MLOAD).push(3).op(Op::MUL).op(Op::ADD);
  a.push(1).op(Op::ADD);
  a.push(0).op(Op::MSTORE);
  a.push(1).push(0x20).op(Op::MLOAD).op(Op::SUB);
  a.push(0x20).op(Op::MSTORE);
  a.push_label("loop").op(Op::JUMP);
  a.label("done");
  a.push(0).op(Op::MLOAD).op(Op::CALLER).op(Op::SSTORE);  // slot[caller]
  a.push(0x20).op(Op::CALLDATALOAD).op(Op::ISZERO);
  a.push_label("ret").op(Op::JUMPI);
  a.push(0).op(Op::SLOAD).push(1).op(Op::ADD).push(0).op(Op::SSTORE);
  a.label("ret");
  a.push(0x20).push(0).op(Op::RETURN);
  return a.assemble();
}

Bytes compute_calldata(std::uint64_t iters, bool touch_shared) {
  Bytes data(64, 0);
  const auto word = U256{iters}.to_be_bytes();
  std::copy(word.begin(), word.end(), data.begin());
  data[63] = touch_shared ? 1 : 0;
  return data;
}

Address compute_contract_address() noexcept { return Address::from_id(0xC0DE); }

U256 expected_accumulator(std::uint64_t iters) {
  U256 acc{0};
  for (std::uint64_t counter = iters; counter != 0; --counter) {
    acc = (acc.shl(3) + (acc.shr(5) ^ (acc & U256{0xff}))) +
          U256{counter} * U256{3} + U256{1};
  }
  return acc;
}

}  // namespace e2e
