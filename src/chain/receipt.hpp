// Per-transaction execution receipt, its RLP encoding, the receipts-trie
// root and the block logs bloom (yellow paper §4.3.1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chain/bloom.hpp"
#include "evm/interpreter.hpp"
#include "types/address.hpp"

namespace blockpilot::chain {

struct Receipt {
  bool success = false;              // inner call did not revert/fail
  std::uint64_t gas_used = 0;        // this transaction's gas
  std::uint64_t cumulative_gas = 0;  // block-prefix cumulative gas
  std::vector<evm::LogRecord> logs;

  /// Bloom over this receipt's log addresses and topics.
  Bloom bloom() const;

  /// rlp([status, cumulativeGas, bloom, [[addr, [topics], data] ...]]).
  std::vector<std::uint8_t> rlp_encode() const;
  /// The same encoding with this receipt's bloom already built.
  std::vector<std::uint8_t> rlp_encode(const Bloom& bloom) const;
};

/// Every receipt's bloom, built once (a keccak per log address and topic)
/// so the receipts root and the block bloom of one block can share them.
std::vector<Bloom> receipt_blooms(const std::vector<Receipt>& receipts);

/// Receipts-trie root: rlp(index) -> rlp(receipt), like the tx trie.
Hash256 receipts_root(const std::vector<Receipt>& receipts);
/// The same root from prebuilt blooms (blooms[i] is receipts[i]'s).
Hash256 receipts_root(const std::vector<Receipt>& receipts,
                      std::span<const Bloom> blooms);

/// Union of all receipt blooms — the header's logsBloom field.
Bloom block_bloom(const std::vector<Receipt>& receipts);
Bloom block_bloom(std::span<const Bloom> blooms);

}  // namespace blockpilot::chain
