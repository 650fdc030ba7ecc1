#include "trie/proof.hpp"

#include <cstring>

#include "rlp/rlp.hpp"
#include "support/assert.hpp"
#include "trie/mpt_node.hpp"

namespace blockpilot::trie {
namespace {

using detail::MptNode;

std::size_t common_prefix(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

Proof prove(const MerklePatriciaTrie& trie,
            std::span<const std::uint8_t> key) {
  Proof proof;
  const Nibbles nibbles = to_nibbles(key);
  std::span<const std::uint8_t> remaining(nibbles);
  const MptNode* node = trie.root_node();

  while (node != nullptr) {
    detail::resolved(node);
    proof.nodes.push_back(detail::encode_node(node));
    switch (node->kind) {
      case MptNode::Kind::kLeaf:
        return proof;  // match or divergence — either way, the path ends
      case MptNode::Kind::kExtension: {
        const std::size_t cp = common_prefix(node->path, remaining);
        if (cp < node->path.size()) return proof;  // diverged: absence
        remaining = remaining.subspan(node->path.size());
        node = node->child.get();
        break;
      }
      case MptNode::Kind::kBranch: {
        if (remaining.empty()) return proof;  // value (or absence) here
        const std::uint8_t nib = remaining[0];
        remaining = remaining.subspan(1);
        node = node->children[nib].get();
        break;
      }
    }
  }
  return proof;
}

namespace {

/// Reference to the next node: either a 32-byte hash or an expected inline
/// encoding (for nodes shorter than 32 bytes).
struct ChildRef {
  bool is_hash = false;
  crypto::Digest hash{};
  rlp::Bytes inline_encoding;
  bool empty = true;
};

ChildRef ref_from_item(const rlp::Item& item) {
  ChildRef ref;
  if (item.is_list) {
    // Inline (< 32 byte) node embedded in the parent.
    ref.empty = false;
    ref.is_hash = false;
    ref.inline_encoding = rlp::encode_item(item);
    return ref;
  }
  if (item.str.empty()) return ref;  // nil child
  if (item.str.size() == 32) {
    ref.empty = false;
    ref.is_hash = true;
    std::memcpy(ref.hash.data(), item.str.data(), 32);
    return ref;
  }
  // A string that is neither empty nor 32 bytes cannot reference a node.
  ref.empty = true;
  return ref;
}

}  // namespace

ProofVerdict verify_proof(const Hash256& root,
                          std::span<const std::uint8_t> key,
                          const Proof& proof) {
  ProofVerdict verdict;

  // Empty trie: absence is proven by the canonical empty root alone.
  if (root == MerklePatriciaTrie::empty_root()) {
    verdict.ok = proof.nodes.empty();
    return verdict;
  }
  if (proof.nodes.empty()) return verdict;  // non-empty trie needs nodes

  const Nibbles nibbles = to_nibbles(key);
  std::span<const std::uint8_t> remaining(nibbles);

  ChildRef expected;
  expected.empty = false;
  expected.is_hash = true;
  expected.hash = root.bytes;

  for (std::size_t i = 0; i < proof.nodes.size(); ++i) {
    const rlp::Bytes& encoded = proof.nodes[i];
    // Link check against the parent's reference.
    if (expected.empty) return verdict;
    if (expected.is_hash) {
      const crypto::Digest digest = crypto::keccak256(std::span(encoded));
      if (digest != expected.hash) return verdict;
    } else if (encoded != expected.inline_encoding) {
      return verdict;
    }

    const rlp::Item item = rlp::decode(std::span(encoded));
    if (!item.is_list) return verdict;

    if (item.list.size() == 17) {  // branch
      if (remaining.empty()) {
        verdict.ok = true;
        if (!item.list[16].str.empty()) verdict.value = item.list[16].str;
        return verdict;
      }
      const std::uint8_t nib = remaining[0];
      remaining = remaining.subspan(1);
      expected = ref_from_item(item.list[nib]);
      if (expected.empty) {
        // Nil child on the key's path: valid absence proof iff this is the
        // final proof node.
        verdict.ok = (i + 1 == proof.nodes.size());
        return verdict;
      }
      continue;
    }

    if (item.list.size() == 2) {  // leaf or extension
      const auto [path, is_leaf] = hex_prefix_decode(std::span(item.list[0].str));
      if (is_leaf) {
        verdict.ok = (i + 1 == proof.nodes.size());
        if (verdict.ok && path.size() == remaining.size() &&
            std::equal(path.begin(), path.end(), remaining.begin())) {
          verdict.value = item.list[1].str;
        }
        return verdict;
      }
      // Extension.
      const std::size_t cp = common_prefix(path, remaining);
      if (cp < path.size()) {
        verdict.ok = (i + 1 == proof.nodes.size());  // divergence: absence
        return verdict;
      }
      remaining = remaining.subspan(path.size());
      expected = ref_from_item(item.list[1]);
      if (expected.empty) return verdict;  // extensions must have a child
      continue;
    }
    return verdict;  // malformed node
  }

  // Ran out of proof nodes while a child reference was still pending.
  return verdict;
}

}  // namespace blockpilot::trie
