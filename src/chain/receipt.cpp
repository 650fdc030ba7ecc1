#include "chain/receipt.hpp"

#include "rlp/rlp.hpp"
#include "support/assert.hpp"
#include "trie/mpt.hpp"

namespace blockpilot::chain {

Bloom Receipt::bloom() const {
  Bloom b;
  for (const evm::LogRecord& log : logs) {
    b.add(std::span(log.address.bytes));
    for (const U256& topic : log.topics) {
      const auto be = topic.to_be_bytes();
      b.add(std::span(be));
    }
  }
  return b;
}

std::vector<std::uint8_t> Receipt::rlp_encode() const {
  return rlp_encode(bloom());
}

std::vector<std::uint8_t> Receipt::rlp_encode(const Bloom& bloom) const {
  rlp::Encoder enc;
  enc.begin_list();
  enc.add(U256{success ? 1u : 0u});
  enc.add(U256{cumulative_gas});
  enc.add(std::span(bloom.bytes()));
  enc.begin_list();
  for (const evm::LogRecord& log : logs) {
    enc.begin_list();
    enc.add(log.address);
    enc.begin_list();
    for (const U256& topic : log.topics) {
      const auto be = topic.to_be_bytes();
      enc.add(std::span(be));  // topics are full 32-byte words
    }
    enc.end_list();
    enc.add(std::span(log.data));
    enc.end_list();
  }
  enc.end_list();
  enc.end_list();
  return enc.take();
}

std::vector<Bloom> receipt_blooms(const std::vector<Receipt>& receipts) {
  std::vector<Bloom> blooms;
  blooms.reserve(receipts.size());
  for (const Receipt& r : receipts) blooms.push_back(r.bloom());
  return blooms;
}

Hash256 receipts_root(const std::vector<Receipt>& receipts) {
  return receipts_root(receipts, receipt_blooms(receipts));
}

Hash256 receipts_root(const std::vector<Receipt>& receipts,
                      std::span<const Bloom> blooms) {
  BP_ASSERT_MSG(blooms.size() == receipts.size(), "one bloom per receipt");
  trie::MerklePatriciaTrie t;
  for (std::size_t i = 0; i < receipts.size(); ++i) {
    const auto key = rlp::encode(static_cast<std::uint64_t>(i));
    const auto value = receipts[i].rlp_encode(blooms[i]);
    t.put(std::span(key), std::span(value));
  }
  return t.root_hash();
}

Bloom block_bloom(const std::vector<Receipt>& receipts) {
  return block_bloom(receipt_blooms(receipts));
}

Bloom block_bloom(std::span<const Bloom> blooms) {
  Bloom b;
  for (const Bloom& r : blooms) b.merge(r);
  return b;
}

}  // namespace blockpilot::chain
