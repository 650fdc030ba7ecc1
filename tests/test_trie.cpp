#include "trie/mpt.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>

#include "rlp/rlp.hpp"
#include "support/rng.hpp"

namespace blockpilot::trie {
namespace {

Bytes bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::span<const std::uint8_t> span_of(const Bytes& b) { return std::span(b); }

void put_str(MerklePatriciaTrie& t, std::string_view k, std::string_view v) {
  const Bytes kb = bytes(k), vb = bytes(v);
  t.put(std::span(kb), std::span(vb));
}

TEST(HexPrefix, EncodingRules) {
  // Yellow-paper examples: even extension, odd extension, even leaf, odd leaf.
  EXPECT_EQ(hex_prefix_encode(std::vector<std::uint8_t>{1, 2, 3, 4, 5}, false),
            (Bytes{0x11, 0x23, 0x45}));
  EXPECT_EQ(hex_prefix_encode(std::vector<std::uint8_t>{0, 1, 2, 3, 4, 5}, false),
            (Bytes{0x00, 0x01, 0x23, 0x45}));
  EXPECT_EQ(hex_prefix_encode(std::vector<std::uint8_t>{0xf, 1, 0xc, 0xb, 8},
                              true),
            (Bytes{0x3f, 0x1c, 0xb8}));
  EXPECT_EQ(hex_prefix_encode(std::vector<std::uint8_t>{0, 0xf, 1, 0xc, 0xb, 8},
                              true),
            (Bytes{0x20, 0x0f, 0x1c, 0xb8}));
}

TEST(Trie, EmptyRootIsCanonical) {
  MerklePatriciaTrie t;
  EXPECT_EQ(t.root_hash().to_hex(),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
}

TEST(Trie, CanonicalFourKeyVector) {
  // The classic MPT example from the Ethereum wiki / reference tests.
  MerklePatriciaTrie t;
  put_str(t, "do", "verb");
  put_str(t, "dog", "puppy");
  put_str(t, "doge", "coin");
  put_str(t, "horse", "stallion");
  EXPECT_EQ(t.root_hash().to_hex(),
            "0x5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84");
}

TEST(Trie, GetReturnsStoredValues) {
  MerklePatriciaTrie t;
  put_str(t, "do", "verb");
  put_str(t, "dog", "puppy");
  put_str(t, "doge", "coin");
  const Bytes key = bytes("dog");
  const auto got = t.get(std::span(key));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, bytes("puppy"));
  const Bytes missing = bytes("cat");
  EXPECT_FALSE(t.get(std::span(missing)).has_value());
  // Prefix of a stored key is not itself stored.
  const Bytes prefix = bytes("dogs");
  EXPECT_FALSE(t.get(std::span(prefix)).has_value());
}

TEST(Trie, OverwriteChangesRoot) {
  MerklePatriciaTrie t;
  put_str(t, "key", "value1");
  const Hash256 r1 = t.root_hash();
  put_str(t, "key", "value2");
  const Hash256 r2 = t.root_hash();
  EXPECT_NE(r1, r2);
  EXPECT_EQ(t.size(), 1u);
  put_str(t, "key", "value1");
  EXPECT_EQ(t.root_hash(), r1);
}

TEST(Trie, InsertionOrderIndependence) {
  const std::vector<std::pair<std::string, std::string>> kvs = {
      {"do", "verb"},   {"dog", "puppy"},     {"doge", "coin"},
      {"horse", "stallion"}, {"dodge", "car"}, {"dot", "point"},
      {"a", "1"},       {"ab", "2"},          {"abc", "3"},
  };
  MerklePatriciaTrie forward, backward, shuffled;
  for (const auto& [k, v] : kvs) put_str(forward, k, v);
  for (auto it = kvs.rbegin(); it != kvs.rend(); ++it)
    put_str(backward, it->first, it->second);
  std::vector<std::size_t> order(kvs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Xoshiro256 rng(99);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  for (const std::size_t i : order) put_str(shuffled, kvs[i].first, kvs[i].second);

  EXPECT_EQ(forward.root_hash(), backward.root_hash());
  EXPECT_EQ(forward.root_hash(), shuffled.root_hash());
}

TEST(Trie, EraseRestoresPriorRoot) {
  MerklePatriciaTrie t;
  put_str(t, "do", "verb");
  put_str(t, "dog", "puppy");
  const Hash256 before = t.root_hash();
  put_str(t, "doge", "coin");
  EXPECT_NE(t.root_hash(), before);
  const Bytes key = bytes("doge");
  t.erase(std::span(key));
  EXPECT_EQ(t.root_hash(), before);
  EXPECT_EQ(t.size(), 2u);
}

TEST(Trie, EraseToEmpty) {
  MerklePatriciaTrie t;
  put_str(t, "alpha", "1");
  put_str(t, "beta", "2");
  const Bytes a = bytes("alpha"), b = bytes("beta");
  t.erase(std::span(a));
  t.erase(std::span(b));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.root_hash(), MerklePatriciaTrie::empty_root());
}

TEST(Trie, EmptyValueMeansErase) {
  MerklePatriciaTrie t;
  put_str(t, "k", "v");
  const Bytes key = bytes("k");
  t.put(std::span(key), std::span<const std::uint8_t>{});
  EXPECT_TRUE(t.empty());
}

TEST(Trie, EraseMissingKeyIsNoop) {
  MerklePatriciaTrie t;
  put_str(t, "abc", "1");
  const Hash256 before = t.root_hash();
  for (const char* missing : {"ab", "abcd", "xyz", ""}) {
    const Bytes key = bytes(missing);
    t.erase(std::span(key));
  }
  EXPECT_EQ(t.root_hash(), before);
}

TEST(Trie, CopySemantics) {
  MerklePatriciaTrie a;
  put_str(a, "one", "1");
  put_str(a, "two", "2");
  MerklePatriciaTrie b = a;  // persistent copy (shares structure)
  put_str(b, "three", "3");
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(b.size(), 3u);
  const Bytes key = bytes("three");
  EXPECT_FALSE(a.get(std::span(key)).has_value());
  EXPECT_TRUE(b.get(std::span(key)).has_value());
}

TEST(SecureTrie, HashedKeysStillRoundTrip) {
  SecureTrie st;
  const Bytes key = bytes("account-key");
  const Bytes value = bytes("account-value");
  st.put(span_of(key), span_of(value));
  const auto got = st.get(span_of(key));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, value);
  EXPECT_NE(st.root_hash(), MerklePatriciaTrie::empty_root());
}

// Property sweep: the trie must agree with std::map under random workloads
// and be history-independent (root depends only on final contents).
class TrieFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieFuzzTest, MatchesReferenceMap) {
  Xoshiro256 rng(GetParam());
  MerklePatriciaTrie t;
  std::map<Bytes, Bytes> reference;

  for (int iter = 0; iter < 600; ++iter) {
    Bytes key(rng.below(6) + 1, 0);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(4));  // dense
    if (rng.chance(0.7)) {
      Bytes value(rng.below(40) + 1, 0);
      for (auto& b : value) b = static_cast<std::uint8_t>(rng.below(256));
      t.put(std::span(key), std::span(value));
      reference[key] = value;
    } else {
      t.erase(std::span(key));
      reference.erase(key);
    }
  }

  EXPECT_EQ(t.size(), reference.size());
  for (const auto& [k, v] : reference) {
    const auto got = t.get(std::span(k));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, v);
  }

  // History independence: rebuilding from the final map gives the same root.
  MerklePatriciaTrie rebuilt;
  for (const auto& [k, v] : reference) rebuilt.put(std::span(k), std::span(v));
  EXPECT_EQ(t.root_hash(), rebuilt.root_hash());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieFuzzTest,
                         ::testing::Values(5u, 17u, 23u, 71u, 1234u));

// ---- incremental-hashing regressions (persistent tries + node-ref memos) --

TEST(TrieIncremental, DirtyPathRegression) {
  // Write, commit (hash), overwrite the same slot with its old value,
  // commit again: the root must equal that of a trie never touched after
  // the first write.  Catches stale node-ref memos on the rewritten path.
  MerklePatriciaTrie t;
  put_str(t, "do", "verb");
  put_str(t, "dog", "puppy");
  put_str(t, "horse", "stallion");
  const Hash256 committed = t.root_hash();

  put_str(t, "dog", "cat");      // dirty the path...
  (void)t.root_hash();           // ...commit the wrong value...
  put_str(t, "dog", "puppy");    // ...restore the original...
  EXPECT_EQ(t.root_hash(), committed);  // ...root must round-trip exactly.
}

TEST(TrieIncremental, SharedStructureKeepsRootsIndependent) {
  MerklePatriciaTrie a;
  put_str(a, "alpha", "1");
  put_str(a, "beta", "2");
  put_str(a, "gamma", "3");
  const Hash256 root_a = a.root_hash();

  MerklePatriciaTrie b = a;         // shares every node with a
  EXPECT_EQ(b.root_hash(), root_a);  // memoized refs carry over

  put_str(b, "beta", "22");         // path-copies the beta spine only
  const Hash256 root_b = b.root_hash();
  EXPECT_NE(root_b, root_a);
  EXPECT_EQ(a.root_hash(), root_a);  // a's nodes were never touched

  // Mutating a after the copy diverged must not disturb b either.
  const Bytes gamma = bytes("gamma");
  a.erase(std::span(gamma));
  EXPECT_EQ(b.root_hash(), root_b);

  // Both sides still equal from-scratch rebuilds of their contents.
  MerklePatriciaTrie a2, b2;
  put_str(a2, "alpha", "1");
  put_str(a2, "beta", "2");
  put_str(b2, "alpha", "1");
  put_str(b2, "beta", "22");
  put_str(b2, "gamma", "3");
  EXPECT_EQ(a.root_hash(), a2.root_hash());
  EXPECT_EQ(b.root_hash(), b2.root_hash());
}

TEST(TrieIncremental, ForkedCopiesFuzzMatchReferenceMaps) {
  // Persistent-structure fuzz: a lineage of forked copies mutated in
  // divergent directions, hashed in interleaved order, must each agree with
  // a cold rebuild of its own reference map — shared spines never leak
  // writes between forks, no matter which fork is committed first.
  Xoshiro256 rng(0xF0F0);
  constexpr int kRounds = 24;
  constexpr int kForks = 4;

  MerklePatriciaTrie base;
  std::map<Bytes, Bytes> base_ref;
  for (int i = 0; i < 80; ++i) {
    Bytes key(rng.below(5) + 1, 0);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(4));
    Bytes value(rng.below(40) + 1, 0);
    for (auto& b : value) b = static_cast<std::uint8_t>(rng.below(256));
    base.put(std::span(key), std::span(value));
    base_ref[key] = value;
  }

  for (int round = 0; round < kRounds; ++round) {
    std::vector<MerklePatriciaTrie> forks(kForks, base);  // all share nodes
    std::vector<std::map<Bytes, Bytes>> refs(kForks, base_ref);
    for (int f = 0; f < kForks; ++f) {
      for (int op = 0; op < 30; ++op) {
        Bytes key(rng.below(5) + 1, 0);
        for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(4));
        if (rng.chance(0.7)) {
          Bytes value(rng.below(40) + 1, 0);
          for (auto& b : value) b = static_cast<std::uint8_t>(rng.below(256));
          forks[f].put(std::span(key), std::span(value));
          refs[f][key] = value;
        } else {
          forks[f].erase(std::span(key));
          refs[f].erase(key);
        }
        // Interleave hashing so sibling forks alternately memoize refs in
        // nodes the others still share.
        if (rng.chance(0.2)) (void)forks[f].root_hash();
      }
    }
    for (int f = 0; f < kForks; ++f) {
      MerklePatriciaTrie cold;
      for (const auto& [k, v] : refs[f]) cold.put(std::span(k), std::span(v));
      ASSERT_EQ(forks[f].root_hash(), cold.root_hash())
          << "round " << round << " fork " << f;
    }
    const std::size_t keep = rng.below(kForks);
    base = std::move(forks[keep]);
    base_ref = std::move(refs[keep]);
  }
}

TEST(TrieIncremental, InterleavedHashingMatchesColdRebuild) {
  // Hash after every mutation (maximally exercising memo invalidation) and
  // compare against a cold trie built once from the same final contents.
  Xoshiro256 rng(99);
  MerklePatriciaTrie warm;
  std::map<Bytes, Bytes> reference;
  for (int iter = 0; iter < 200; ++iter) {
    Bytes key(rng.below(5) + 1, 0);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(4));
    if (rng.chance(0.75)) {
      Bytes value(rng.below(48) + 1, 0);
      for (auto& b : value) b = static_cast<std::uint8_t>(rng.below(256));
      warm.put(std::span(key), std::span(value));
      reference[key] = value;
    } else {
      warm.erase(std::span(key));
      reference.erase(key);
    }
    const Hash256 incremental = warm.root_hash();
    if (iter % 20 == 19) {
      MerklePatriciaTrie cold;
      for (const auto& [k, v] : reference) cold.put(std::span(k), std::span(v));
      ASSERT_EQ(incremental, cold.root_hash()) << "iter " << iter;
    }
  }
}

// ---- batched hashing (MerklePatriciaTrie::hash_all) -----------------------

// Reference root straight from the yellow-paper definition over sorted
// (nibble key, value) pairs, encoded with rlp::Encoder and hashed with the
// scalar keccak256: nothing here goes through the trie's node memos, its
// level-order encoder or keccak256_batch.
using Pairs = std::vector<std::pair<Nibbles, Bytes>>;

Bytes reference_node(const Pairs& pairs, std::size_t lo, std::size_t hi,
                     std::size_t depth);

void add_reference_child(rlp::Encoder& enc, const Pairs& pairs, std::size_t lo,
                         std::size_t hi, std::size_t depth) {
  if (lo == hi) {
    enc.add(std::span<const std::uint8_t>{});
    return;
  }
  const Bytes node = reference_node(pairs, lo, hi, depth);
  if (node.size() < 32) {
    enc.add_raw(std::span(node));
  } else {
    const auto digest = crypto::keccak256(std::span(node));
    enc.add(std::span(digest));
  }
}

Bytes reference_node(const Pairs& pairs, std::size_t lo, std::size_t hi,
                     std::size_t depth) {
  rlp::Encoder enc;
  const auto rest = [&](std::size_t i, std::size_t from) {
    return std::span(pairs[i].first).subspan(from);
  };
  if (hi - lo == 1) {
    const Bytes hp = hex_prefix_encode(rest(lo, depth), /*is_leaf=*/true);
    enc.begin_list().add(std::span(hp)).add(std::span(pairs[lo].second));
    return enc.end_list().take();
  }
  // Shared run of nibbles: sorted order makes it the first and last keys'.
  const auto first = rest(lo, depth), last = rest(hi - 1, depth);
  std::size_t run = 0;
  while (run < first.size() && run < last.size() && first[run] == last[run])
    ++run;
  if (run > 0) {
    const Bytes hp = hex_prefix_encode(first.first(run), /*is_leaf=*/false);
    enc.begin_list().add(std::span(hp));
    add_reference_child(enc, pairs, lo, hi, depth + run);
    return enc.end_list().take();
  }
  enc.begin_list();
  std::size_t i = lo;
  Bytes value;
  if (pairs[i].first.size() == depth) value = pairs[i++].second;
  for (std::uint8_t nibble = 0; nibble < 16; ++nibble) {
    const std::size_t begin = i;
    while (i < hi && pairs[i].first[depth] == nibble) ++i;
    add_reference_child(enc, pairs, begin, i, depth + 1);
  }
  enc.add(std::span(value));
  return enc.end_list().take();
}

Hash256 reference_root(const std::map<Bytes, Bytes>& contents) {
  if (contents.empty()) return MerklePatriciaTrie::empty_root();
  Pairs pairs;
  for (const auto& [k, v] : contents) pairs.emplace_back(to_nibbles(k), v);
  std::sort(pairs.begin(), pairs.end());
  const Bytes root = reference_node(pairs, 0, pairs.size(), 0);
  return Hash256{crypto::keccak256(std::span(root))};
}

TEST(TrieHashAll, ReferenceRootMatchesCanonicalVector) {
  // The reference is only an oracle if it lands on a published root.
  const std::map<Bytes, Bytes> contents = {
      {bytes("do"), bytes("verb")},
      {bytes("dog"), bytes("puppy")},
      {bytes("doge"), bytes("coin")},
      {bytes("horse"), bytes("stallion")},
  };
  EXPECT_EQ(reference_root(contents).to_hex(),
            "0x5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84");
}

TEST(TrieHashAll, FuzzMatchesEachTriesOwnRoot) {
  // Several tries per call: empty, tiny (inline root), dense short keys,
  // 32-byte keys with values past the 55-byte RLP short form, and forks of
  // one unhashed base that share its pending nodes, some passed twice.
  Xoshiro256 rng(0xBA7C4);
  const auto random_bytes = [&rng](std::size_t len, std::uint64_t alphabet) {
    Bytes b(len);
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.below(alphabet));
    return b;
  };
  for (int round = 0; round < 40; ++round) {
    std::vector<MerklePatriciaTrie> tries;
    std::vector<std::map<Bytes, Bytes>> refs;
    const auto fill = [&](MerklePatriciaTrie& t, std::map<Bytes, Bytes>& ref,
                          int ops) {
      const bool wide = rng.chance(0.5);
      for (int op = 0; op < ops; ++op) {
        const Bytes key =
            wide ? random_bytes(32, 256) : random_bytes(rng.below(5) + 1, 4);
        if (!ref.empty() && rng.chance(0.2)) {
          const auto victim = std::next(
              ref.begin(), static_cast<std::ptrdiff_t>(rng.below(ref.size())));
          t.erase(std::span(victim->first));
          ref.erase(victim);
          continue;
        }
        const Bytes value = random_bytes(rng.below(90) + 1, 256);
        t.put(std::span(key), std::span(value));
        ref[key] = value;
      }
    };
    const std::size_t solo = rng.below(5);
    for (std::size_t i = 0; i < solo; ++i) {
      tries.emplace_back();
      refs.emplace_back();
      const auto ops = rng.chance(0.3) ? rng.below(3) : rng.below(120);
      fill(tries.back(), refs.back(), static_cast<int>(ops));
    }
    MerklePatriciaTrie base;
    std::map<Bytes, Bytes> base_ref;
    fill(base, base_ref, 60);
    if (rng.chance(0.5)) (void)base.root_hash();  // some forks start hashed
    const std::size_t forks = rng.below(4);
    for (std::size_t i = 0; i < forks; ++i) {
      tries.push_back(base);
      refs.push_back(base_ref);
      fill(tries.back(), refs.back(), static_cast<int>(rng.below(10)));
    }

    std::vector<const MerklePatriciaTrie*> batch;
    for (const auto& t : tries) {
      batch.push_back(&t);
      if (rng.chance(0.2)) batch.push_back(&t);
    }
    MerklePatriciaTrie::hash_all(batch);
    for (std::size_t i = 0; i < tries.size(); ++i) {
      MerklePatriciaTrie cold;
      for (const auto& [k, v] : refs[i]) cold.put(std::span(k), std::span(v));
      ASSERT_EQ(tries[i].root_hash(), cold.root_hash())
          << "round " << round << " trie " << i;
      ASSERT_EQ(tries[i].root_hash(), reference_root(refs[i]))
          << "round " << round << " trie " << i;
    }
  }
}

TEST(TrieHashAll, ConcurrentRootHashOnCopiesSharingPendingNodes) {
  // Two copies of an unhashed trie share all its pending nodes; each also
  // path-copies a few spines of its own.  Both threads hash the shared
  // nodes at once: each publishes a ref only if the other has not, and
  // both roots must match their cold rebuilds.
  Xoshiro256 rng(77);
  for (int round = 0; round < 20; ++round) {
    MerklePatriciaTrie base;
    std::map<Bytes, Bytes> ref;
    for (int i = 0; i < 400; ++i) {
      Bytes key(32), value(rng.below(70) + 1);
      for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
      for (auto& b : value) b = static_cast<std::uint8_t>(rng.below(256));
      base.put(std::span(key), std::span(value));
      ref[key] = value;
    }
    MerklePatriciaTrie copies[2] = {base, base};
    std::map<Bytes, Bytes> refs[2] = {ref, ref};
    for (int c = 0; c < 2; ++c) {
      for (int i = 0; i < 5; ++i) {
        Bytes key(32), value(8, static_cast<std::uint8_t>(c + 1));
        for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
        copies[c].put(std::span(key), std::span(value));
        refs[c][key] = value;
      }
    }
    base = MerklePatriciaTrie();  // the copies are the only owners
    Hash256 roots[2];
    std::thread other([&] { roots[1] = copies[1].root_hash(); });
    roots[0] = copies[0].root_hash();
    other.join();
    for (int c = 0; c < 2; ++c) {
      MerklePatriciaTrie cold;
      for (const auto& [k, v] : refs[c]) cold.put(std::span(k), std::span(v));
      ASSERT_EQ(roots[c], cold.root_hash()) << "round " << round << " copy " << c;
    }
  }
}

}  // namespace
}  // namespace blockpilot::trie
