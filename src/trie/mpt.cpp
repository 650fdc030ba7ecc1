#include "trie/mpt.hpp"

#include <cstring>

#include "crypto/keccak.hpp"
#include "db/node_store.hpp"
#include "rlp/rlp.hpp"
#include "support/assert.hpp"
#include "support/exclusive.hpp"
#include "trie/mpt_node.hpp"
#include "trie/node_cache.hpp"

namespace blockpilot::trie {

Nibbles to_nibbles(std::span<const std::uint8_t> key) {
  Nibbles out;
  out.reserve(key.size() * 2);
  for (auto b : key) {
    out.push_back(static_cast<std::uint8_t>(b >> 4));
    out.push_back(static_cast<std::uint8_t>(b & 0xf));
  }
  return out;
}

namespace {

// Appends the hex-prefix encoding of `nibbles`: a flag nibble (bit 1 leaf,
// bit 0 odd length), the first nibble or zero padding, then nibble pairs.
void append_hex_prefix(Bytes& out, std::span<const std::uint8_t> nibbles,
                       bool is_leaf) {
  const std::uint8_t flag = is_leaf ? 2 : 0;
  std::size_t i = 0;
  if (nibbles.size() % 2 == 0) {
    out.push_back(static_cast<std::uint8_t>(flag << 4));
  } else {
    out.push_back(static_cast<std::uint8_t>(((flag | 1) << 4) | nibbles[0]));
    i = 1;
  }
  for (; i < nibbles.size(); i += 2)
    out.push_back(
        static_cast<std::uint8_t>((nibbles[i] << 4) | nibbles[i + 1]));
}

}  // namespace

Bytes hex_prefix_encode(std::span<const std::uint8_t> nibbles, bool is_leaf) {
  Bytes out;
  append_hex_prefix(out, nibbles, is_leaf);
  return out;
}

std::pair<Nibbles, bool> hex_prefix_decode(std::span<const std::uint8_t> hp) {
  BP_ASSERT(!hp.empty());
  const std::uint8_t flag = hp[0] >> 4;
  const bool is_leaf = (flag & 2) != 0;
  const bool odd = (flag & 1) != 0;
  Nibbles out;
  if (odd) out.push_back(hp[0] & 0xf);
  for (std::size_t i = 1; i < hp.size(); ++i) {
    out.push_back(static_cast<std::uint8_t>(hp[i] >> 4));
    out.push_back(static_cast<std::uint8_t>(hp[i] & 0xf));
  }
  return {std::move(out), is_leaf};
}

using Node = detail::MptNode;
using NodePtr = std::shared_ptr<Node>;

MerklePatriciaTrie::MerklePatriciaTrie() = default;
MerklePatriciaTrie::~MerklePatriciaTrie() = default;
MerklePatriciaTrie::MerklePatriciaTrie(MerklePatriciaTrie&&) noexcept = default;
MerklePatriciaTrie& MerklePatriciaTrie::operator=(MerklePatriciaTrie&&) noexcept =
    default;

// Persistent copy: shares the node graph; subsequent writes on either side
// path-copy, so the copies diverge without disturbing each other.
MerklePatriciaTrie::MerklePatriciaTrie(const MerklePatriciaTrie& other)
    : root_(other.root_), size_(other.size_) {}

MerklePatriciaTrie& MerklePatriciaTrie::operator=(
    const MerklePatriciaTrie& other) {
  if (this != &other) {
    root_ = other.root_;
    size_ = other.size_;
  }
  return *this;
}

namespace {

std::size_t common_prefix(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

// Returns a uniquely-owned, mutation-safe version of `node`: in place when
// this is the only reference (invalidating its hash memo), a shallow clone
// (children still shared) otherwise.  Callers must have moved the pointer
// out of its parent slot so use_count reflects true external sharing, and
// must take ownership top-down — owning a parent bumps its children's
// counts, so a shared ancestor can never leak an in-place child mutation.
NodePtr owned(NodePtr node) {
  if (node == nullptr) return node;
  if (exclusive(node)) {
    node->invalidate_ref();
    return node;
  }
  auto copy = std::make_shared<Node>();
  copy->kind = node->kind;
  copy->path = node->path;
  copy->value = node->value;
  copy->child = node->child;
  copy->children = node->children;
  return copy;
}

// Inserts (key-suffix, value) into the subtree rooted at `node`, returning
// the (possibly replaced) subtree root. `inserted` reports whether a new key
// was added (vs overwritten).
NodePtr insert(NodePtr node, std::span<const std::uint8_t> key, Bytes value,
               bool& inserted) {
  if (node == nullptr) {
    inserted = true;
    return Node::leaf(Nibbles(key.begin(), key.end()), std::move(value));
  }
  detail::resolved(node.get());
  node = owned(std::move(node));

  switch (node->kind) {
    case Node::Kind::kLeaf: {
      const std::size_t cp = common_prefix(node->path, key);
      if (cp == node->path.size() && cp == key.size()) {
        node->value = std::move(value);  // overwrite
        inserted = false;
        return node;
      }
      // Split into a branch under a possible shared-prefix extension.
      auto branch = Node::branch();
      // Existing leaf moves under the branch.
      if (node->path.size() == cp) {
        branch->value = std::move(node->value);
      } else {
        const std::uint8_t idx = node->path[cp];
        Nibbles rest(node->path.begin() + static_cast<std::ptrdiff_t>(cp) + 1,
                     node->path.end());
        branch->children[idx] =
            Node::leaf(std::move(rest), std::move(node->value));
      }
      // New key goes under the branch too.
      if (key.size() == cp) {
        branch->value = std::move(value);
      } else {
        const std::uint8_t idx = key[cp];
        Nibbles rest(key.begin() + static_cast<std::ptrdiff_t>(cp) + 1,
                     key.end());
        branch->children[idx] = Node::leaf(std::move(rest), std::move(value));
      }
      inserted = true;
      if (cp == 0) return branch;
      Nibbles shared(key.begin(), key.begin() + static_cast<std::ptrdiff_t>(cp));
      return Node::extension(std::move(shared), std::move(branch));
    }

    case Node::Kind::kExtension: {
      const std::size_t cp = common_prefix(node->path, key);
      if (cp == node->path.size()) {
        node->child =
            insert(std::move(node->child), key.subspan(cp), std::move(value),
                   inserted);
        return node;
      }
      // Split the extension at the divergence point.
      auto branch = Node::branch();
      {
        const std::uint8_t idx = node->path[cp];
        Nibbles rest(node->path.begin() + static_cast<std::ptrdiff_t>(cp) + 1,
                     node->path.end());
        if (rest.empty()) {
          branch->children[idx] = std::move(node->child);
        } else {
          branch->children[idx] =
              Node::extension(std::move(rest), std::move(node->child));
        }
      }
      if (key.size() == cp) {
        branch->value = std::move(value);
      } else {
        const std::uint8_t idx = key[cp];
        Nibbles rest(key.begin() + static_cast<std::ptrdiff_t>(cp) + 1,
                     key.end());
        branch->children[idx] = Node::leaf(std::move(rest), std::move(value));
      }
      inserted = true;
      if (cp == 0) return branch;
      Nibbles shared(key.begin(), key.begin() + static_cast<std::ptrdiff_t>(cp));
      return Node::extension(std::move(shared), std::move(branch));
    }

    case Node::Kind::kBranch: {
      if (key.empty()) {
        inserted = node->value.empty();
        node->value = std::move(value);
        return node;
      }
      const std::uint8_t idx = key[0];
      node->children[idx] = insert(std::move(node->children[idx]),
                                   key.subspan(1), std::move(value), inserted);
      return node;
    }
  }
  BP_ASSERT_MSG(false, "unreachable node kind");
}

const Bytes* lookup(const Node* node, std::span<const std::uint8_t> key) {
  while (node != nullptr) {
    detail::resolved(node);
    switch (node->kind) {
      case Node::Kind::kLeaf:
        if (key.size() == node->path.size() &&
            std::equal(key.begin(), key.end(), node->path.begin()))
          return &node->value;
        return nullptr;
      case Node::Kind::kExtension: {
        const std::size_t n = node->path.size();
        if (key.size() < n ||
            !std::equal(node->path.begin(), node->path.end(), key.begin()))
          return nullptr;
        key = key.subspan(n);
        node = node->child.get();
        break;
      }
      case Node::Kind::kBranch:
        if (key.empty()) return node->value.empty() ? nullptr : &node->value;
        node = node->children[key[0]].get();
        key = key.subspan(1);
        break;
    }
  }
  return nullptr;
}

// Collapses a branch that lost children down to the minimal canonical form.
// `node` must be uniquely owned (the remove path guarantees it).
NodePtr normalize_branch(NodePtr node) {
  int child_count = 0;
  int only_idx = -1;
  for (int i = 0; i < 16; ++i) {
    if (node->children[static_cast<std::size_t>(i)] != nullptr) {
      ++child_count;
      only_idx = i;
    }
  }
  const bool has_value = !node->value.empty();
  if (child_count == 0) {
    if (!has_value) return nullptr;
    return Node::leaf({}, std::move(node->value));
  }
  if (child_count == 1 && !has_value) {
    NodePtr child =
        std::move(node->children[static_cast<std::size_t>(only_idx)]);
    const auto idx = static_cast<std::uint8_t>(only_idx);
    detail::resolved(child.get());
    switch (child->kind) {
      case Node::Kind::kLeaf:
      case Node::Kind::kExtension: {
        child = owned(std::move(child));  // its path is about to change
        Nibbles merged;
        merged.reserve(1 + child->path.size());
        merged.push_back(idx);
        merged.insert(merged.end(), child->path.begin(), child->path.end());
        child->path = std::move(merged);
        return child;
      }
      case Node::Kind::kBranch:
        return Node::extension({idx}, std::move(child));
    }
  }
  return node;
}

NodePtr remove(NodePtr node, std::span<const std::uint8_t> key,
               bool& removed) {
  if (node == nullptr) return nullptr;
  detail::resolved(node.get());
  switch (node->kind) {
    case Node::Kind::kLeaf:
      if (key.size() == node->path.size() &&
          std::equal(key.begin(), key.end(), node->path.begin())) {
        removed = true;
        return nullptr;
      }
      return node;

    case Node::Kind::kExtension: {
      const std::size_t n = node->path.size();
      if (key.size() < n ||
          !std::equal(node->path.begin(), node->path.end(), key.begin()))
        return node;
      node = owned(std::move(node));
      node->child = remove(std::move(node->child), key.subspan(n), removed);
      if (!removed) return node;
      if (node->child == nullptr) return nullptr;
      // Merge with the (possibly collapsed) child to stay canonical.
      if (node->child->kind == Node::Kind::kBranch) return node;
      NodePtr child = owned(std::move(node->child));
      Nibbles merged = node->path;
      merged.insert(merged.end(), child->path.begin(), child->path.end());
      child->path = std::move(merged);
      return child;
    }

    case Node::Kind::kBranch: {
      if (key.empty()) {
        if (node->value.empty()) return node;
        node = owned(std::move(node));
        removed = true;
        node->value.clear();
        return normalize_branch(std::move(node));
      }
      const std::uint8_t idx = key[0];
      node = owned(std::move(node));
      node->children[idx] =
          remove(std::move(node->children[idx]), key.subspan(1), removed);
      if (!removed) return node;
      return normalize_branch(std::move(node));
    }
  }
  BP_ASSERT_MSG(false, "unreachable node kind");
}

}  // namespace

namespace detail {

namespace {

// Hex-prefix path as an RLP string item.  Its first byte (flag nibble, then
// the first path nibble or zero) is always below 0x80, so a one-byte path
// encodes as itself.
std::size_t path_item_size(const Nibbles& path) {
  const std::size_t len = 1 + path.size() / 2;
  return len == 1 ? 1 : rlp::header_size(len) + len;
}

void put_path(Bytes& out, const Nibbles& path, bool is_leaf) {
  const std::size_t len = 1 + path.size() / 2;
  if (len != 1) rlp::append_string_header(out, len);
  append_hex_prefix(out, path, is_leaf);
}

// A child reference item: empty string for no child, the inline encoding
// as-is, or the 32-byte digest as a string.  The child's ref must be
// published.
std::size_t child_item_size(const MptNode* child) {
  if (child == nullptr) return 1;
  return child->ref_len < 32 ? child->ref_len : 33;
}

void put_child(Bytes& out, const MptNode* child) {
  if (child == nullptr) {
    rlp::append_string(out, {});
    return;
  }
  const std::span<const std::uint8_t> ref = child->ref();
  if (ref.size() == 32) {
    rlp::append_string(out, ref);
  } else {
    out.insert(out.end(), ref.begin(), ref.end());
  }
}

// Appends `node`'s RLP encoding (yellow paper node composition function c)
// to `out`.  Every child's ref must already be published.
void append_encoding(Bytes& out, const MptNode* node) {
  switch (node->kind) {
    case MptNode::Kind::kLeaf:
      rlp::append_list_header(
          out, path_item_size(node->path) + rlp::string_size(node->value));
      put_path(out, node->path, /*is_leaf=*/true);
      rlp::append_string(out, node->value);
      return;
    case MptNode::Kind::kExtension:
      rlp::append_list_header(out, path_item_size(node->path) +
                                       child_item_size(node->child.get()));
      put_path(out, node->path, /*is_leaf=*/false);
      put_child(out, node->child.get());
      return;
    case MptNode::Kind::kBranch: {
      std::size_t payload = rlp::string_size(node->value);
      for (const auto& child : node->children)
        payload += child_item_size(child.get());
      rlp::append_list_header(out, payload);
      for (const auto& child : node->children) put_child(out, child.get());
      rlp::append_string(out, node->value);
      return;
    }
  }
}

// Publish-if-unset: the first ref published for a node wins, and later
// publishers (another thread hashing a copy that shares the node) drop
// their identical result.  The lock only orders the memo bytes against
// ref_ready; nobody encodes or hashes while holding it.
void publish_ref(const MptNode* node, std::span<const std::uint8_t> ref) {
  while (node->ref_lock.test_and_set(std::memory_order_acquire)) {
  }
  if (!node->ref_ready.load(std::memory_order_relaxed)) {
    node->set_ref(ref);
    node->ref_ready.store(true, std::memory_order_release);
  }
  node->ref_lock.clear(std::memory_order_release);
}

// Appends each node under `node` whose ref is unpublished to
// levels[height], where a node's height is one more than its highest
// pending child's (0 when it has none).  Returns `node`'s height, or -1
// when its ref is already published, which also covers every stub (refs
// are published from birth) and, by the memo invariant, its whole subtree.
int collect_pending(const MptNode* node,
                    std::vector<std::vector<const MptNode*>>& levels) {
  if (node == nullptr || node->ref_ready.load(std::memory_order_acquire))
    return -1;
  int below = -1;
  if (node->kind == MptNode::Kind::kExtension) {
    below = collect_pending(node->child.get(), levels);
  } else if (node->kind == MptNode::Kind::kBranch) {
    for (const auto& child : node->children)
      below = std::max(below, collect_pending(child.get(), levels));
  }
  const auto height = static_cast<std::size_t>(below + 1);
  if (levels.size() <= height) levels.resize(height + 1);
  levels[height].push_back(node);
  return below + 1;
}

// Nodes encoded per arena fill.  A cold root (a whole genesis state) has
// levels of many thousand nodes; chunking bounds the arena while keeping
// 128 full 8-way groups per keccak256_batch call.
constexpr std::size_t kChunk = 1024;

// The only hashing path: publishes the ref of every pending node under
// `roots`, level by level from the leaves up so each level's children are
// published before it encodes.  A level encodes into one arena; refs
// shorter than 32 bytes publish as they are and the rest hash in one
// keccak256_batch call.  Roots may share pending nodes, within one call or
// with a concurrent call on another thread; a shared node is then encoded
// and hashed more than once, identically, and published once.
void hash_pending(std::span<const MptNode* const> roots) {
  std::vector<std::vector<const MptNode*>> levels;
  for (const MptNode* root : roots) collect_pending(root, levels);
  Bytes arena;
  std::vector<std::size_t> ends;
  std::vector<std::span<const std::uint8_t>> inputs;
  std::vector<const MptNode*> hashed;
  std::vector<crypto::Digest> digests;
  for (const auto& level : levels) {
    for (std::size_t first = 0; first < level.size(); first += kChunk) {
      const std::span<const MptNode* const> chunk =
          std::span(level).subspan(first, std::min(kChunk, level.size() - first));
      arena.clear();
      ends.clear();
      for (const MptNode* node : chunk) {
        append_encoding(arena, node);
        ends.push_back(arena.size());
      }
      inputs.clear();
      hashed.clear();
      std::size_t begin = 0;
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        const std::span<const std::uint8_t> enc(arena.data() + begin,
                                                ends[i] - begin);
        begin = ends[i];
        if (enc.size() < 32) {
          publish_ref(chunk[i], enc);
        } else {
          inputs.push_back(enc);
          hashed.push_back(chunk[i]);
        }
      }
      digests.resize(inputs.size());
      crypto::keccak256_batch(inputs, digests);
      for (std::size_t i = 0; i < hashed.size(); ++i)
        publish_ref(hashed[i], digests[i]);
    }
  }
}

}  // namespace

std::span<const std::uint8_t> node_ref(const MptNode* node) {
  if (!node->ref_ready.load(std::memory_order_acquire)) {
    hash_pending(std::span(&node, 1));
    // Published by us or by a concurrent hasher; either way the acquire
    // orders the memo bytes before the read below.
    BP_ASSERT(node->ref_ready.load(std::memory_order_acquire));
  }
  return node->ref();
}

namespace {

std::shared_ptr<MptNode> child_from_item(const rlp::Item& item,
                                         const db::NodeStore* store);

// Fills `node`'s structural fields from a decoded node encoding.  Child
// items are either nil (empty string), a 32-byte hash (becomes an unloaded
// stub on the same store), or a nested list (an inline node, rebuilt
// eagerly with its inline ref memoized so re-encoding is bit-identical).
void fill_from_item(MptNode& node, const rlp::Item& item,
                    const db::NodeStore* store) {
  BP_ASSERT_MSG(item.is_list, "node encoding must be an RLP list");
  if (item.list.size() == 17) {
    node.kind = MptNode::Kind::kBranch;
    for (std::size_t i = 0; i < 16; ++i)
      node.children[i] = child_from_item(item.list[i], store);
    node.value = item.list[16].str;
    return;
  }
  BP_ASSERT_MSG(item.list.size() == 2, "node list must have 2 or 17 items");
  auto [path, is_leaf] = hex_prefix_decode(std::span(item.list[0].str));
  if (is_leaf) {
    node.kind = MptNode::Kind::kLeaf;
    node.path = std::move(path);
    node.value = item.list[1].str;
    return;
  }
  node.kind = MptNode::Kind::kExtension;
  node.path = std::move(path);
  node.child = child_from_item(item.list[1], store);
  BP_ASSERT_MSG(node.child != nullptr, "extension child must be a node");
}

std::shared_ptr<MptNode> child_from_item(const rlp::Item& item,
                                         const db::NodeStore* store) {
  if (item.is_list) {
    auto n = std::make_shared<MptNode>();
    fill_from_item(*n, item, store);
    const Bytes ref = rlp::encode_item(item);
    BP_ASSERT(ref.size() < 32);
    n->set_ref(ref);
    n->ref_ready.store(true, std::memory_order_release);
    return n;
  }
  if (item.str.empty()) return nullptr;
  BP_ASSERT_MSG(item.str.size() == 32,
                "child ref must be nil, inline, or a 32-byte hash");
  Hash256 h;
  std::memcpy(h.bytes.data(), item.str.data(), 32);
  return MptNode::stub(h, store);
}

}  // namespace

void load_stub(const MptNode* node) {
  while (node->ref_lock.test_and_set(std::memory_order_acquire)) {
  }
  if (!node->loaded.load(std::memory_order_relaxed)) {
    BP_ASSERT_MSG(node->store != nullptr, "stub without a backing store");
    BP_ASSERT(node->ref_len == 32);
    Hash256 h;
    h.bytes = node->cached_ref;
    // Read-through the global NodeCache: a hit skips the store entirely; a
    // miss fetches, verifies the encoding against its ref, then caches it.
    auto& cache = NodeCache::global();
    Bytes enc;
    if (auto cached = cache.find(h); cached.has_value()) {
      cache.count_load_hit();
      enc = std::move(*cached);
    } else {
      cache.count_load_miss();
      const db::Status st = node->store->get(h, enc);
      BP_ASSERT_MSG(st.ok(), "node store lost a node the trie references");
      BP_ASSERT_MSG(Hash256{crypto::keccak256(std::span(enc))} == h,
                    "stored encoding does not hash to its ref");
      cache.insert(h, std::span(enc));
    }
    auto* mut = const_cast<MptNode*>(node);
    fill_from_item(*mut, rlp::decode(std::span(enc)), node->store);
    // A tiny (< 32 byte) encoding can only be a root loaded eagerly by
    // from_root (a child stub implies a hashed parent ref): rewrite the
    // memo to the canonical inline form before anyone else can see it.
    if (enc.size() < 32) mut->set_ref(enc);
    mut->loaded.store(true, std::memory_order_release);
  }
  node->ref_lock.clear(std::memory_order_release);
}

Bytes encode_node(const Node* node) {
  node_ref(node);  // publishes every child's ref
  Bytes out;
  append_encoding(out, node);
  return out;
}

}  // namespace detail

void MerklePatriciaTrie::put(std::span<const std::uint8_t> key,
                             std::span<const std::uint8_t> value) {
  if (value.empty()) {
    erase(key);
    return;
  }
  const Nibbles nibbles = to_nibbles(key);
  bool inserted = false;
  root_ = insert(std::move(root_), std::span(nibbles),
                 Bytes(value.begin(), value.end()), inserted);
  if (inserted) ++size_;
}

std::optional<Bytes> MerklePatriciaTrie::get(
    std::span<const std::uint8_t> key) const {
  const Nibbles nibbles = to_nibbles(key);
  const Bytes* found = lookup(root_.get(), std::span(nibbles));
  if (found == nullptr) return std::nullopt;
  return *found;
}

void MerklePatriciaTrie::erase(std::span<const std::uint8_t> key) {
  const Nibbles nibbles = to_nibbles(key);
  bool removed = false;
  root_ = remove(std::move(root_), std::span(nibbles), removed);
  // from_root tries report size 0 (unknown), so guard the decrement.
  if (removed && size_ > 0) --size_;
}

void MerklePatriciaTrie::hash_all(
    std::span<const MerklePatriciaTrie* const> tries) {
  std::vector<const detail::MptNode*> roots;
  roots.reserve(tries.size());
  for (const MerklePatriciaTrie* t : tries)
    if (t->root_ != nullptr) roots.push_back(t->root_.get());
  detail::hash_pending(roots);
}

Hash256 MerklePatriciaTrie::root_hash() const {
  if (root_ == nullptr) return empty_root();
  const std::span<const std::uint8_t> ref = detail::node_ref(root_.get());
  if (ref.size() == 32) {
    Hash256 h;
    std::memcpy(h.bytes.data(), ref.data(), 32);
    return h;
  }
  // Tiny root whose encoding inlines below 32 bytes: the root is always
  // hashed regardless (yellow paper), and the inline ref IS the encoding.
  return Hash256{crypto::keccak256(ref)};
}

MerklePatriciaTrie MerklePatriciaTrie::from_root(const Hash256& root,
                                                 const db::NodeStore& store) {
  MerklePatriciaTrie trie;
  if (root == empty_root()) return trie;
  auto stub = detail::MptNode::stub(root, &store);
  // Eager root load: validates the root exists and, for a tiny root,
  // rewrites the ref memo to the canonical inline form while the node is
  // still private to this call (no concurrent readers yet).
  detail::resolved(stub.get());
  trie.root_ = std::move(stub);
  return trie;
}

namespace {

// Persists the subtree rooted at a hash-referenced node.  Prunes at nodes
// the store already holds (content-addressing: an identical hash is an
// identical subtree) and never descends into inline children — their whole
// subtree is embedded in this node's encoding.
//
// POST-ORDER on purpose: children append strictly before their parent.
// Crash recovery truncates a *suffix* of the append-only file (everything
// past the last durability barrier), so with post-order appends a node's
// presence implies its whole closure's presence — which is exactly what
// makes the contains() prune sound even against a barrier that races an
// in-flight persist, and what lets persist_commitment() early-out on a
// root the store already holds.  (Compaction preserves the invariant
// differently: the rewritten file is adopted atomically via the manifest,
// never as a partially-trusted prefix.)
std::size_t persist_subtree(const Node* node, db::NodeStore& store) {
  const std::span<const std::uint8_t> ref = detail::node_ref(node);
  BP_ASSERT(ref.size() == 32);
  Hash256 h;
  std::memcpy(h.bytes.data(), ref.data(), 32);
  if (store.contains(h)) return 0;
  // New to this store.  An unloaded stub only reaches here when persisting
  // into a *different* store than it came from; materialize it first.
  detail::resolved(node);
  std::size_t appended = 0;
  const auto visit = [&](const Node* child) {
    if (child != nullptr && detail::node_ref(child).size() == 32)
      appended += persist_subtree(child, store);
  };
  if (node->kind == Node::Kind::kExtension) {
    visit(node->child.get());
  } else if (node->kind == Node::Kind::kBranch) {
    for (const auto& child : node->children) visit(child.get());
  }
  const Bytes enc = detail::encode_node(node);
  const db::Status st = store.put(h, std::span(enc));
  BP_ASSERT_MSG(st.ok(), "node store put failed");
  return appended + 1;
}

}  // namespace

std::size_t MerklePatriciaTrie::persist_nodes(db::NodeStore& store) const {
  if (root_ == nullptr) return 0;
  const std::span<const std::uint8_t> ref = detail::node_ref(root_.get());
  if (ref.size() == 32) return persist_subtree(root_.get(), store);
  // Tiny root: its inline ref IS the encoding; store it under its keccak so
  // from_root(root_hash()) can find it.
  const Hash256 h{crypto::keccak256(ref)};
  if (store.contains(h)) return 0;
  const db::Status st = store.put(h, ref);
  BP_ASSERT_MSG(st.ok(), "node store put failed");
  return 1;
}

Hash256 MerklePatriciaTrie::empty_root() {
  // keccak256(rlp("")) == keccak256(0x80).
  static const Hash256 kEmpty = [] {
    const std::uint8_t empty_rlp = 0x80;
    return Hash256{crypto::keccak256(std::span(&empty_rlp, 1))};
  }();
  return kEmpty;
}

}  // namespace blockpilot::trie
