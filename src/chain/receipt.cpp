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
  // Every log address and topic of the block, hashed in one batch.
  std::size_t topic_count = 0;
  for (const Receipt& r : receipts)
    for (const evm::LogRecord& log : r.logs) topic_count += log.topics.size();
  std::vector<std::array<std::uint8_t, 32>> topics;
  topics.reserve(topic_count);  // never reallocates: `items` points into it
  std::vector<std::span<const std::uint8_t>> items;
  for (const Receipt& r : receipts)
    for (const evm::LogRecord& log : r.logs) {
      items.emplace_back(log.address.bytes);
      for (const U256& topic : log.topics)
        items.emplace_back(topics.emplace_back(topic.to_be_bytes()));
    }
  std::vector<crypto::Digest> digests(items.size());
  crypto::keccak256_batch(items, digests);

  std::vector<Bloom> blooms(receipts.size());
  std::size_t next = 0;
  for (std::size_t i = 0; i < receipts.size(); ++i)
    for (const evm::LogRecord& log : receipts[i].logs)
      for (std::size_t k = 0; k <= log.topics.size(); ++k)
        blooms[i].add_digest(digests[next++]);
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
