// Seeded inputs for the two-node block-lifecycle benchmark.
//
// A workload is a genesis state plus one batch of arriving transactions per
// block interval, both a pure function of (workload, seed).  The nodes only
// ever see these generated inputs; nothing in the timed loop draws random
// numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "chain/transaction.hpp"
#include "state/world_state.hpp"
#include "txpool/txpool.hpp"

namespace e2e {

namespace bp = blockpilot;
using Bytes = std::vector<std::uint8_t>;

enum class Workload : std::uint8_t { kMainnet, kFeewar, kCompute };

const char* workload_name(Workload w) noexcept;
bool parse_workload(std::string_view name, Workload& out) noexcept;

struct Inputs {
  Workload workload = Workload::kMainnet;
  std::uint64_t seed = 0;
  /// Genesis with its root already computed, so both nodes start from the
  /// same committed state and neither pays for hashing it.
  std::shared_ptr<const bp::state::WorldState> genesis;
  /// arrivals[b] reaches the proposer's pool before it proposes block b+1.
  std::vector<std::vector<bp::chain::Transaction>> arrivals;
  /// Every sender that appears in the arrivals (all at nonce 0 in genesis).
  std::vector<bp::Address> senders;
  bp::txpool::TxPoolConfig pool;
  std::size_t max_txs_per_block = 0;  // 0 = bound by block gas only
  /// Distinct (sender, nonce) slots offered across all arrivals.
  std::size_t offered_slots = 0;
  /// Keccak over the genesis root and every arrival's RLP, in order: two
  /// input sets are byte-identical iff their digests match.
  bp::Hash256 digest;
};

/// Block intervals one chain run drives for `w`.
std::size_t blocks_for(Workload w) noexcept;

Inputs make_inputs(Workload w, std::uint64_t seed);

// ---- the compute workload's contract ----

/// Arithmetic-loop contract.  Calldata word 0 is the loop count, word 1 a
/// flag; it stores the accumulator at slot CALLER, bumps the shared slot 0
/// when the flag is set, and returns the accumulator.
Bytes compute_contract();
Bytes compute_calldata(std::uint64_t iters, bool touch_shared);
bp::Address compute_contract_address() noexcept;
/// The accumulator the contract returns for `iters` turns, computed natively.
bp::U256 expected_accumulator(std::uint64_t iters);

}  // namespace e2e
