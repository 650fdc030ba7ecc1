// Asynchronous state-commitment subsystem tests: incremental WorldState
// roots (differential vs the from-scratch oracle), the hash-keyed
// NodeCache, CommitPipeline ordering, and the async integration through
// validator / pipeline / blockchain.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "commit/commit_pipeline.hpp"
#include "core/blockpilot.hpp"
#include "support/rng.hpp"
#include "trie/node_cache.hpp"

namespace blockpilot {
namespace {

using state::StateKey;
using state::WorldState;

// ---------------------------------------------------------------------------
// NodeCache: the hash-keyed read cache in front of disk-backed stub loads

using Encoding = std::vector<std::uint8_t>;

Hash256 keccak_of(const Encoding& enc) {
  return Hash256{crypto::keccak256(std::span(enc))};
}

// One read-through load as detail::load_stub performs it: find by hash, and
// on a miss insert the (already verified) encoding.  Returns whether the
// cache answered, and checks that a cached answer is the right encoding.
bool load(trie::NodeCache& cache, const Encoding& enc) {
  const Hash256 h = keccak_of(enc);
  if (const auto got = cache.find(h); got.has_value()) {
    EXPECT_EQ(*got, enc);
    return true;
  }
  cache.insert(h, std::span(enc));
  return false;
}

TEST(NodeCache, FindsInsertedEncodingAndCounts) {
  trie::NodeCache cache(4096);
  const Encoding enc = {0x01, 0x02, 0x03, 0x04};

  EXPECT_FALSE(load(cache, enc));
  EXPECT_TRUE(load(cache, enc));
  auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);
  // Byte accounting: one resident entry, charged encoding + overhead.
  EXPECT_EQ(s.bytes, trie::NodeCache::entry_bytes(enc.size()));
  EXPECT_GE(s.capacity, 4096u);

  // Re-inserting a resident hash is a no-op.
  cache.insert(keccak_of(enc), std::span(enc));
  s = cache.stats();
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, trie::NodeCache::entry_bytes(enc.size()));

  // A hash never inserted is a miss, not a wrong answer.
  EXPECT_FALSE(cache.find(keccak_of({0x09})).has_value());
}

TEST(NodeCache, ZeroCapacityBypasses) {
  trie::NodeCache cache(0);
  const Encoding enc = {0xaa, 0xbb};
  EXPECT_FALSE(load(cache, enc));
  EXPECT_FALSE(load(cache, enc));
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bypassed, 4u);  // two finds and two inserts skipped the cache
}

TEST(NodeCache, EvictsWhenFullAndStaysCorrect) {
  // ~1 resident 3-byte entry per shard: every shard is constantly evicting.
  trie::NodeCache cache(8 * trie::NodeCache::entry_bytes(3));
  std::vector<Encoding> encodings;
  for (std::uint8_t i = 0; i < 64; ++i)
    encodings.push_back({i, static_cast<std::uint8_t>(i + 1), 0x7f});

  // Fill far past capacity, then re-load everything: every cached answer
  // must be the exact encoding stored under that hash (checked in load).
  for (int round = 0; round < 2; ++round)
    for (const auto& enc : encodings) load(cache, enc);
  const auto s = cache.stats();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.bytes, s.capacity);
  EXPECT_EQ(s.bytes, s.entries * trie::NodeCache::entry_bytes(3));
}

TEST(NodeCache, ShrinkingCapacityEvicts) {
  trie::NodeCache cache(std::size_t{1} << 20);
  std::vector<Encoding> encodings;
  for (std::uint8_t i = 0; i < 100; ++i)
    encodings.push_back({i, 0x55, static_cast<std::uint8_t>(0xff - i)});
  for (const auto& enc : encodings) load(cache, enc);
  EXPECT_EQ(cache.stats().entries, 100u);
  const std::size_t shrunk = 8 * trie::NodeCache::entry_bytes(3);
  cache.set_capacity(shrunk);
  const auto s = cache.stats();
  EXPECT_LE(s.bytes, s.capacity);
  EXPECT_LE(s.entries, 8u);
  EXPECT_GT(s.evictions, 0u);
  // Survivors still answer correctly after the shrink sweep.
  std::size_t survivors = 0;
  for (const auto& enc : encodings) {
    const auto got = cache.find(keccak_of(enc));
    if (got.has_value()) {
      EXPECT_EQ(*got, enc);
      ++survivors;
    }
  }
  EXPECT_EQ(survivors, s.entries);
}

// 3-byte encodings whose hashes all land in shard 0, in generation order,
// so the CLOCK tests below can pin all traffic to one shard.
std::vector<Encoding> shard0_encodings(std::size_t n) {
  std::vector<Encoding> out;
  for (std::uint32_t seed = 0; out.size() < n; ++seed) {
    Encoding enc = {static_cast<std::uint8_t>(seed),
                    static_cast<std::uint8_t>(seed >> 8),
                    static_cast<std::uint8_t>(seed >> 16)};
    if (trie::NodeCache::shard_index(keccak_of(enc)) == 0)
      out.push_back(std::move(enc));
  }
  return out;
}

TEST(NodeCache, ClockGivesSecondChanceToHitEntries) {
  // Budget: exactly two 3-byte entries per shard.
  trie::NodeCache cache(8 * 2 * trie::NodeCache::entry_bytes(3));
  const auto encs = shard0_encodings(3);
  const auto& a = encs[0];
  const auto& b = encs[1];
  const auto& c = encs[2];

  load(cache, a);
  load(cache, b);  // shard 0 now full: [a, b]
  load(cache, a);  // sets a's reference bit

  // Inserting c forces one eviction.  The sweep meets a first (referenced:
  // bit cleared, spared) and evicts b — the second chance in action.
  load(cache, c);
  EXPECT_TRUE(load(cache, a));   // a survived
  EXPECT_FALSE(load(cache, b));  // b did not
}

TEST(NodeCache, ClockDegeneratesToFifoWithoutHits) {
  trie::NodeCache cache(8 * 2 * trie::NodeCache::entry_bytes(3));
  const auto encs = shard0_encodings(3);
  const auto& a = encs[0];
  const auto& b = encs[1];
  const auto& c = encs[2];

  load(cache, a);
  load(cache, b);
  load(cache, c);  // no hits anywhere: evicts a (the oldest)
  EXPECT_TRUE(load(cache, b));   // b survived
  EXPECT_FALSE(load(cache, a));  // a was evicted
}

TEST(NodeCache, JumboEncodingBypassesCache) {
  trie::NodeCache cache(8 * 2 * trie::NodeCache::entry_bytes(3));
  const auto resident = shard0_encodings(1);
  load(cache, resident[0]);
  const auto before = cache.stats();

  // An encoding whose charge alone exceeds a shard's budget is never
  // admitted — it must not wipe out the resident entries.
  const Encoding jumbo(4096, 0xEE);
  EXPECT_FALSE(load(cache, jumbo));
  EXPECT_FALSE(load(cache, jumbo));
  const auto after = cache.stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.bypassed, before.bypassed + 2);
  EXPECT_TRUE(load(cache, resident[0]));
}

TEST(NodeCache, ClockPropertyRandomizedOps) {
  // Property sweep: under random load traffic with mixed encoding sizes,
  // the byte budget is never exceeded, accounting stays exact, every hit
  // returns the right encoding, and the counters are consistent with the
  // operation count.
  trie::NodeCache cache(4 * 1024);
  std::mt19937_64 rng(0xC10C);
  std::uint64_t ops = 0;
  std::vector<Encoding> pool;
  for (int i = 0; i < 200; ++i) {
    const std::size_t len = 1 + rng() % 200;
    Encoding enc(len);
    for (auto& byte : enc) byte = static_cast<std::uint8_t>(rng());
    pool.push_back(std::move(enc));
  }
  std::size_t resident_bytes = 0;
  for (int op = 0; op < 3000; ++op) {
    const auto& enc = pool[rng() % pool.size()];
    ++ops;
    load(cache, enc);
    if (op % 64 == 0) {
      const auto s = cache.stats();
      ASSERT_LE(s.bytes, s.capacity);
      ASSERT_LE(s.evictions, s.misses);
      // Exact accounting: resident bytes are the sum of resident charges.
      resident_bytes = 0;
      for (const auto& e : pool)
        if (cache.find(keccak_of(e)).has_value())
          resident_bytes += trie::NodeCache::entry_bytes(e.size());
      ops += pool.size();
      ASSERT_EQ(s.bytes, resident_bytes);
    }
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, ops);
  EXPECT_LE(s.bytes, s.capacity);
  EXPECT_GT(s.evictions, 0u);
}

TEST(NodeCache, TinyLfuScanCannotEvictReheatedWorkingSet) {
  // Property: once a working set is hot (looked up often enough to register
  // in the frequency sketch), an arbitrarily long one-shot scan must not
  // push it out — every scan candidate's estimated frequency is below any
  // hot victim's, so admission denies the trade.  All traffic is pinned to
  // shard 0, whose budget holds exactly the working set.
  constexpr std::size_t kWorking = 4;
  constexpr std::size_t kScan = 400;
  trie::NodeCache cache(8 * kWorking * trie::NodeCache::entry_bytes(3));
  const auto encs = shard0_encodings(kWorking + kScan);

  // Heat: enough re-reads to lift the sketch estimate well above a
  // one-shot's, but far below the sketch's aging period.
  for (int round = 0; round < 12; ++round)
    for (std::size_t i = 0; i < kWorking; ++i) load(cache, encs[i]);

  const auto heated = cache.stats();
  EXPECT_EQ(heated.misses, kWorking);
  EXPECT_EQ(heated.rejected, 0u);

  // Scan: every encoding distinct, each seen exactly once.
  for (std::size_t i = kWorking; i < kWorking + kScan; ++i)
    ASSERT_FALSE(load(cache, encs[i]));

  // Every scan insert was denied admission: no hot entry was traded away.
  const auto scanned = cache.stats();
  EXPECT_EQ(scanned.rejected - heated.rejected, kScan);
  EXPECT_EQ(scanned.evictions, heated.evictions);

  // The working set still answers from cache — zero new misses.
  for (std::size_t i = 0; i < kWorking; ++i) EXPECT_TRUE(load(cache, encs[i]));
  const auto after = cache.stats();
  EXPECT_EQ(after.misses, scanned.misses);
  EXPECT_EQ(after.hits, scanned.hits + kWorking);

  // Reheat-and-scan again: resistance is not a first-scan fluke.
  for (std::size_t i = kWorking; i < kWorking + kScan; ++i)
    load(cache, encs[i]);
  for (std::size_t i = 0; i < kWorking; ++i) load(cache, encs[i]);
  EXPECT_EQ(cache.stats().misses, after.misses + kScan);  // scans still miss
}

TEST(NodeCache, FreshTrieRootHashNeverTouchesTheCache) {
  // Node hashing goes straight through keccak: computing roots of tries
  // built in memory must not look up, insert or count anything in the
  // process-wide cache.
  const auto before = trie::NodeCache::global().stats();
  trie::MerklePatriciaTrie t;
  trie::SecureTrie secure;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const auto key = crypto::keccak256(std::to_string(i));
    const std::vector<std::uint8_t> value(1 + i % 40,
                                          static_cast<std::uint8_t>(i));
    t.put(std::span(key), std::span(value));
    secure.put(std::span(key), std::span(value));
  }
  (void)t.root_hash();
  (void)secure.root_hash();
  WorldState ws;
  for (std::uint64_t i = 1; i <= 50; ++i)
    ws.set(StateKey::balance(Address::from_id(i)), U256{i});
  (void)ws.state_root();
  (void)ws.state_root_full_rebuild();

  const auto after = trie::NodeCache::global().stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.bypassed, before.bypassed);
}

// ---------------------------------------------------------------------------
// Incremental WorldState commitment vs the from-scratch oracle

Address addr_of(std::uint64_t id) { return Address::from_id(id); }

TEST(IncrementalRoot, MatchesOracleOnBasicFlow) {
  WorldState ws;
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());

  ws.set(StateKey::balance(addr_of(1)), U256{100});
  ws.set(StateKey::nonce(addr_of(1)), U256{7});
  ws.set(StateKey::storage(addr_of(2), U256{1}), U256{42});
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());

  // Memo hit when nothing changed.
  const auto before = ws.commit_stats();
  const Hash256 again = ws.state_root();
  const auto after = ws.commit_stats();
  EXPECT_EQ(again, ws.state_root_full_rebuild());
  EXPECT_EQ(after.root_memo_hits, before.root_memo_hits + 1);
  EXPECT_EQ(after.root_recomputes, before.root_recomputes);
}

TEST(IncrementalRoot, OldValueRewriteRegression) {
  // Write, commit, overwrite the same slot with its old value, commit:
  // the root must equal that of a state which never changed the slot.
  WorldState ws;
  ws.set(StateKey::storage(addr_of(9), U256{5}), U256{1234});
  ws.set(StateKey::balance(addr_of(9)), U256{1});
  const Hash256 committed = ws.state_root();

  ws.set(StateKey::storage(addr_of(9), U256{5}), U256{9999});
  (void)ws.state_root();
  ws.set(StateKey::storage(addr_of(9), U256{5}), U256{1234});
  EXPECT_EQ(ws.state_root(), committed);
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());
}

TEST(IncrementalRoot, EmptyAccountPrunes) {
  WorldState ws;
  ws.set(StateKey::balance(addr_of(3)), U256{50});
  const Hash256 with_account = ws.state_root();

  ws.set(StateKey::balance(addr_of(4)), U256{10});
  (void)ws.state_root();
  // Draining account 4 back to empty must prune it from the trie.
  ws.set(StateKey::balance(addr_of(4)), U256{});
  EXPECT_EQ(ws.state_root(), with_account);
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());

  // Resurrection after pruning rebuilds correctly.
  ws.set(StateKey::balance(addr_of(4)), U256{11});
  ws.set(StateKey::storage(addr_of(4), U256{0}), U256{1});
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());
}

TEST(IncrementalRoot, ZeroStorageWriteErases) {
  WorldState ws;
  ws.set(StateKey::storage(addr_of(5), U256{1}), U256{77});
  ws.set(StateKey::storage(addr_of(5), U256{2}), U256{88});
  ws.set(StateKey::balance(addr_of(5)), U256{1});
  (void)ws.state_root();

  ws.set(StateKey::storage(addr_of(5), U256{2}), U256{});
  EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild());
  // The memoized storage root must equal a trie holding only the surviving
  // slot: the erased one is gone from both the slot map and the trie.
  EXPECT_EQ(ws.get(StateKey::storage(addr_of(5), U256{2})), U256{});
  trie::SecureTrie surviving;
  const auto key = U256{1}.to_be_bytes();
  const auto value = rlp::encode(U256{77});
  surviving.put(std::span(key), std::span(value));
  EXPECT_EQ(ws.storage_root(addr_of(5)), surviving.root_hash());
}

TEST(IncrementalRoot, CopiesDivergeIndependently) {
  WorldState a;
  a.set(StateKey::balance(addr_of(1)), U256{100});
  a.set(StateKey::storage(addr_of(1), U256{0}), U256{5});
  const Hash256 root_a = a.state_root();

  WorldState b = a;  // shares trie structure + memos
  EXPECT_EQ(b.state_root(), root_a);

  b.set(StateKey::storage(addr_of(1), U256{0}), U256{6});
  b.set(StateKey::balance(addr_of(2)), U256{1});
  EXPECT_EQ(b.state_root(), b.state_root_full_rebuild());
  EXPECT_NE(b.state_root(), root_a);

  // The original is untouched by the copy's writes.
  EXPECT_EQ(a.state_root(), root_a);
  EXPECT_EQ(a.state_root(), a.state_root_full_rebuild());
}

TEST(IncrementalRoot, DifferentialFuzzAgainstOracle) {
  // Code-bearing inputs inside the fuzzed address range: an account whose
  // code was set empty (its codeHash is keccak("")) and a contract whose
  // code_hash memo reaches the fuzzed state through a copy.  The oracle
  // re-hashes the code, so it checks the memo the incremental path encodes.
  WorldState parent;
  parent.set_code(addr_of(3), {});
  parent.set_code(addr_of(4), {0x60, 0x01, 0x60, 0x00, 0x55, 0x00});
  parent.set(StateKey::storage(addr_of(4), U256{1}), U256{9});
  const Hash256 parent_root = parent.state_root();
  ASSERT_EQ(parent_root, parent.state_root_full_rebuild());
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xdecafULL}) {
    Xoshiro256 rng(seed);
    WorldState ws = parent;
    for (int step = 0; step < 400; ++step) {
      const Address addr = addr_of(rng() % 12);
      switch (rng() % 5) {
        case 0:
          ws.set(StateKey::balance(addr), U256{rng() % 1000});
          break;
        case 1:
          ws.set(StateKey::nonce(addr), U256{rng() % 50});
          break;
        case 2:
          ws.set(StateKey::storage(addr, U256{rng() % 20}), U256{rng() % 256});
          break;
        case 3:  // erase a slot
          ws.set(StateKey::storage(addr, U256{rng() % 20}), U256{});
          break;
        case 4:  // drain an account toward emptiness
          ws.set(StateKey::balance(addr), U256{});
          ws.set(StateKey::nonce(addr), U256{});
          break;
      }
      if (step % 7 == 0)
        ASSERT_EQ(ws.state_root(), ws.state_root_full_rebuild())
            << "seed " << seed << " step " << step;
    }
    EXPECT_EQ(ws.state_root(), ws.state_root_full_rebuild()) << "seed " << seed;
  }
  EXPECT_EQ(parent.state_root_full_rebuild(), parent_root);
}

// ---------------------------------------------------------------------------
// Shared storage seeds across WorldState copies

TEST(StorageSeeds, FreshAccountAdoptedAcrossCopies) {
  // A fresh account's pending storage writes are shared by two forks; the
  // first fork to commit builds the storage trie once and publishes it
  // through the seed cell, the second adopts it in O(1) instead of
  // re-seeding from the whole slot map.
  WorldState head;
  for (std::uint64_t s = 0; s < 24; ++s)
    head.set(StateKey::storage(addr_of(77), U256{s}), U256{s * s + 1});
  head.set(StateKey::balance(addr_of(77)), U256{5});

  WorldState a = head;  // both forks share the dirty set and the seed cell
  WorldState b = head;
  const auto base = head.commit_stats();

  const Hash256 ra = a.state_root();
  const auto sa = a.commit_stats();
  EXPECT_EQ(sa.seeds_built, base.seeds_built + 1);   // a built + published
  EXPECT_EQ(sa.seeds_adopted, base.seeds_adopted);

  const Hash256 rb = b.state_root();
  const auto sb = b.commit_stats();
  EXPECT_EQ(sb.seeds_adopted, base.seeds_adopted + 1);  // b adopted a's trie
  EXPECT_EQ(sb.accounts_resynced, base.accounts_resynced);  // no rebuild

  EXPECT_EQ(ra, rb);
  EXPECT_EQ(ra, a.state_root_full_rebuild());
  EXPECT_EQ(head.state_root(), ra);  // the source itself adopts too
}

TEST(StorageSeeds, PostCopyWriteDetachesFromSeed) {
  // A storage write after the fork must detach the writer from the shared
  // cell — otherwise it would adopt a trie for a slot map it no longer has.
  WorldState head;
  head.set(StateKey::storage(addr_of(88), U256{0}), U256{111});
  head.set(StateKey::storage(addr_of(88), U256{1}), U256{222});

  WorldState a = head;
  WorldState b = head;
  b.set(StateKey::storage(addr_of(88), U256{1}), U256{999});  // detaches b

  const Hash256 ra = a.state_root();  // publishes the {111,222} seed
  const Hash256 rb = b.state_root();  // must NOT adopt it
  EXPECT_NE(ra, rb);
  EXPECT_EQ(ra, a.state_root_full_rebuild());
  EXPECT_EQ(rb, b.state_root_full_rebuild());
  EXPECT_EQ(b.commit_stats().seeds_adopted, 0u);
}

TEST(StorageSeeds, DifferentialFuzzSharedTriesAcrossCopies) {
  // The headline differential fuzz: >= 1000 randomized blocks, each block
  // forking the head into two siblings that commit independently (storage
  // tries and seed cells shared wherever contents allow), every root
  // checked against the from-scratch oracle.
  constexpr int kBlocks = 1024;
  Xoshiro256 rng(0x5EED5);
  std::uint64_t adopted = 0;
  std::uint64_t built = 0;

  const auto random_writes = [&rng](WorldState& ws, std::uint64_t addr_space,
                                    int count) {
    for (int i = 0; i < count; ++i) {
      const Address addr = addr_of(1 + rng() % addr_space);
      switch (rng() % 8) {
        case 0:
          ws.set(StateKey::balance(addr), U256{rng() % 200});
          break;
        case 1:
          ws.set(StateKey::nonce(addr), U256{rng() % 64});
          break;
        case 2:  // drain toward emptiness (prune + later resurrection)
          ws.set(StateKey::balance(addr), U256{});
          ws.set(StateKey::nonce(addr), U256{});
          break;
        default: {
          const U256 slot{rng() % 16};
          const U256 val = (rng() % 4 == 0) ? U256{} : U256{rng() % 100'000};
          ws.set(StateKey::storage(addr, slot), val);
        }
      }
    }
  };

  WorldState head;
  random_writes(head, 16, 48);
  ASSERT_EQ(head.state_root(), head.state_root_full_rebuild());

  for (int block = 0; block < kBlocks; ++block) {
    // A slowly growing address space keeps fresh accounts (and therefore
    // seed builds/adoptions) appearing throughout the run.
    const std::uint64_t addr_space = 16 + block / 64;

    // Pending writes on the head are shared by both forks via seed cells.
    random_writes(head, addr_space, 1 + static_cast<int>(rng() % 6));
    const auto base = head.commit_stats();
    WorldState a = head;
    WorldState b = head;

    // Divergent tails detach the touched accounts from the shared cells.
    if (rng() % 2) random_writes(a, addr_space, 1 + static_cast<int>(rng() % 4));
    if (rng() % 2) random_writes(b, addr_space, 1 + static_cast<int>(rng() % 4));

    const Hash256 ra = a.state_root();
    const Hash256 rb = b.state_root();
    ASSERT_EQ(ra, a.state_root_full_rebuild()) << "block " << block;
    ASSERT_EQ(rb, b.state_root_full_rebuild()) << "block " << block;
    const auto sa = a.commit_stats();
    const auto sb = b.commit_stats();
    built += (sa.seeds_built - base.seeds_built) +
             (sb.seeds_built - base.seeds_built);
    adopted += (sa.seeds_adopted - base.seeds_adopted) +
               (sb.seeds_adopted - base.seeds_adopted);

    head = (rng() % 2) ? std::move(a) : std::move(b);
  }
  // Full oracle check on the surviving lineage.
  ASSERT_EQ(head.state_root(), head.state_root_full_rebuild());
  // The sharing machinery actually engaged during the run.
  EXPECT_GT(built, 0u);
  EXPECT_GT(adopted, 0u);
}

// ---------------------------------------------------------------------------
// Copy families: copies share unwritten accounts, slots and commit memos

TEST(SharedState, CopyFamilyDifferentialFuzz) {
  // A tree of copies (parent, children, grandchildren, ...) receives random
  // writes, commits and drops; every copy is checked against its own
  // independent model after every step.  A write to one copy must never be
  // visible in its source, its siblings or its descendants.
  constexpr std::uint64_t kAddrs = 10;
  constexpr std::uint64_t kSlots = 6;
  constexpr std::size_t kMaxCopies = 7;
  // Model key: (address id, field) with field -2 = balance, -1 = nonce and
  // 0..kSlots-1 = a storage slot; absent keys read as zero.
  using Model = std::map<std::pair<std::uint64_t, int>, U256>;
  struct Copy {
    WorldState ws;
    Model model;
    std::map<std::uint64_t, Hash256> code_hashes;
  };
  const auto key_of = [](std::uint64_t id, int field) {
    const Address a = addr_of(id);
    if (field == -2) return StateKey::balance(a);
    if (field == -1) return StateKey::nonce(a);
    return StateKey::storage(a, U256{static_cast<std::uint64_t>(field)});
  };
  const auto matches_model = [&](const Copy& c) {
    for (std::uint64_t id = 0; id < kAddrs; ++id) {
      for (int field = -2; field < static_cast<int>(kSlots); ++field) {
        const auto it = c.model.find({id, field});
        const U256 want = it == c.model.end() ? U256{} : it->second;
        if (c.ws.get(key_of(id, field)) != want) return false;
      }
      const auto ch = c.code_hashes.find(id);
      const Hash256 want = ch == c.code_hashes.end() ? Hash256{} : ch->second;
      if (c.ws.code_hash(addr_of(id)) != want) return false;
    }
    return true;
  };

  for (const std::uint64_t seed : {3ULL, 0xfa11ULL, 0xc0deULL}) {
    Xoshiro256 rng(seed);
    std::vector<std::unique_ptr<Copy>> family;
    family.push_back(std::make_unique<Copy>());
    for (int step = 0; step < 600; ++step) {
      const std::size_t pick = rng() % family.size();
      const std::uint64_t op = rng() % 16;
      if (op < 3 && family.size() < kMaxCopies) {
        // Fork: committed or dirty, the copy starts equal to its source.
        auto child = std::make_unique<Copy>(*family[pick]);
        family.push_back(std::move(child));
      } else if (op == 3 && family.size() > 1) {
        family.erase(family.begin() + static_cast<std::ptrdiff_t>(pick));
      } else if (op == 4) {
        Copy& c = *family[pick];
        const std::uint64_t id = rng() % kAddrs;
        state::Bytes code(rng() % 3 == 0 ? 0 : 1 + rng() % 8,
                          static_cast<std::uint8_t>(rng()));
        c.code_hashes[id] =
            code.empty() ? Hash256{} : Hash256::of(std::span(code));
        c.ws.set_code(addr_of(id), std::move(code));
      } else {
        Copy& c = *family[pick];
        const std::uint64_t id = rng() % kAddrs;
        const int field = static_cast<int>(rng() % (kSlots + 2)) - 2;
        const U256 value = rng() % 4 == 0 ? U256{} : U256{rng() % 1000};
        c.ws.set(key_of(id, field), value);
        if (value.is_zero())
          c.model.erase({id, field});
        else
          c.model[{id, field}] = value;
      }
      // Every step checks every copy.  Only some steps root the copies
      // themselves; the others root a throwaway copy, so later forks are
      // taken from both committed and dirty sources.
      const bool commit = rng() % 3 == 0;
      for (std::size_t i = 0; i < family.size(); ++i) {
        Copy& c = *family[i];
        ASSERT_TRUE(matches_model(c))
            << "seed " << seed << " step " << step << " copy " << i;
        WorldState probe = c.ws;
        WorldState& rooted = commit ? c.ws : probe;
        ASSERT_EQ(rooted.state_root(), rooted.state_root_full_rebuild())
            << "seed " << seed << " step " << step << " copy " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CommitPipeline

TEST(CommitPipeline, InlineModeComputesImmediately) {
  commit::CommitPipeline pipe;  // no pool: degraded/sync mode
  auto ws = std::make_shared<WorldState>();
  ws->set(StateKey::balance(addr_of(1)), U256{10});
  const Hash256 expected = ws->state_root_full_rebuild();

  auto handle = pipe.submit(ws);
  ASSERT_TRUE(handle.valid());
  EXPECT_TRUE(handle.ready());
  EXPECT_EQ(handle.get().state_root, expected);
  EXPECT_EQ(pipe.stats().inline_runs, 1u);
}

TEST(CommitPipeline, AsyncComputesOffThread) {
  ThreadPool pool(2);
  commit::CommitPipeline pipe(&pool);
  auto ws = std::make_shared<WorldState>();
  ws->set(StateKey::storage(addr_of(2), U256{3}), U256{99});
  const Hash256 expected = ws->state_root_full_rebuild();

  auto handle = pipe.submit(ws, [] { return Hash256{}; });
  ASSERT_TRUE(handle.valid());
  handle.wait();
  EXPECT_EQ(handle.get().state_root, expected);
  EXPECT_EQ(pipe.stats().submitted, 1u);
  EXPECT_EQ(pipe.stats().inline_runs, 0u);
}

TEST(CommitPipeline, FifoOrderingAcrossSubmissions) {
  // Block N's root must be ready no later than block N+1's: when a later
  // handle resolves, every earlier one has resolved too.
  ThreadPool pool(4);
  commit::CommitPipeline pipe(&pool);

  std::vector<commit::CommitHandle> handles;
  WorldState ws;
  for (std::uint64_t n = 0; n < 8; ++n) {
    ws.set(StateKey::balance(addr_of(n + 1)), U256{n + 1});
    handles.push_back(pipe.submit(std::make_shared<WorldState>(ws)));
  }
  for (std::size_t n = handles.size(); n-- > 0;) {
    handles[n].wait();
    for (std::size_t m = 0; m < n; ++m)
      EXPECT_TRUE(handles[m].ready()) << "handle " << m << " after " << n;
  }
  for (std::size_t n = 0; n < handles.size(); ++n)
    EXPECT_EQ(handles[n].get().sequence, n);
}

TEST(CommitPipeline, SubmitWritesAppliesOnTopOfParent) {
  commit::CommitPipeline pipe;
  WorldState parent;
  parent.set(StateKey::balance(addr_of(1)), U256{100});
  (void)parent.state_root();

  auto handle = pipe.submit_writes(
      parent, {{StateKey::balance(addr_of(1)), U256{90}},
               {StateKey::balance(addr_of(2)), U256{10}}});
  WorldState expected = parent;
  expected.set(StateKey::balance(addr_of(1)), U256{90});
  expected.set(StateKey::balance(addr_of(2)), U256{10});
  EXPECT_EQ(handle.get().state_root, expected.state_root_full_rebuild());
  // Parent unchanged.
  EXPECT_EQ(parent.get(StateKey::balance(addr_of(1))), U256{100});
}

TEST(CommitPipeline, SettleCallbackDeliversResultsInFifoOrder) {
  // The push-style settlement notification the event-driven node loop
  // consumes: one callback per submission, in publication (= FIFO) order,
  // carrying the publishing result.
  ThreadPool pool(4);
  commit::CommitPipeline pipe(&pool);

  std::mutex mu;
  std::vector<std::uint64_t> order;
  std::vector<Hash256> roots;
  WorldState ws;
  std::vector<Hash256> expected;
  for (std::uint64_t n = 0; n < 6; ++n) {
    ws.set(StateKey::balance(addr_of(n + 1)), U256{n + 1});
    expected.push_back(ws.state_root_full_rebuild());
    pipe.submit(std::make_shared<WorldState>(ws), {},
                [&](const commit::CommitResult& r) {
                  std::scoped_lock lk(mu);
                  order.push_back(r.sequence);
                  roots.push_back(r.state_root);
                });
  }
  pipe.drain();

  // drain() implies every callback has finished, not merely started.
  std::scoped_lock lk(mu);
  ASSERT_EQ(order.size(), 6u);
  for (std::uint64_t n = 0; n < 6; ++n) {
    EXPECT_EQ(order[n], n);
    EXPECT_EQ(roots[n], expected[n]);
  }
  EXPECT_EQ(pipe.stats().settled, 6u);
}

TEST(CommitPipeline, SettleCallbackFiresInlineInDegradedMode) {
  commit::CommitPipeline pipe;  // no pool
  bool fired = false;
  auto ws = std::make_shared<WorldState>();
  ws->set(StateKey::nonce(addr_of(7)), U256{1});
  pipe.submit(ws, {}, [&](const commit::CommitResult& r) {
    fired = true;
    EXPECT_EQ(r.sequence, 0u);
  });
  EXPECT_TRUE(fired);  // before submit() returned
  EXPECT_EQ(pipe.pending(), 0u);
}

TEST(CommitPipeline, WaitPendingAtMostEnforcesSpeculationDepth) {
  // One pool thread, first task gated: three commitments pile up in flight,
  // and the depth-backpressure wait only returns once enough have settled.
  ThreadPool pool(1);
  commit::CommitPipeline pipe(&pool);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();

  WorldState ws;
  for (std::uint64_t n = 0; n < 3; ++n) {
    ws.set(StateKey::balance(addr_of(n + 1)), U256{n + 1});
    commit::AuxRootFn aux;
    if (n == 0)
      aux = [opened] {
        opened.wait();
        return Hash256{};
      };
    pipe.submit(std::make_shared<WorldState>(ws), std::move(aux));
  }
  EXPECT_EQ(pipe.pending(), 3u);
  EXPECT_EQ(pipe.stats().max_pending, 3u);

  gate.set_value();
  pipe.wait_pending_at_most(1);
  EXPECT_LE(pipe.pending(), 1u);
  pipe.drain();
  EXPECT_EQ(pipe.pending(), 0u);
  EXPECT_EQ(pipe.stats().settled, 3u);
}

TEST(CommitPipeline, DestructionDrainsAbandonedCommitments) {
  // A revoked speculative suffix drops its CommitHandles without awaiting
  // them.  The pipeline must outlive those orphaned tasks: its destructor
  // drains, and every settlement callback completes before it returns.
  ThreadPool pool(2);
  std::atomic<int> settled{0};
  for (int round = 0; round < 8; ++round) {
    commit::CommitPipeline pipe(&pool);
    WorldState ws;
    for (std::uint64_t n = 0; n < 4; ++n) {
      ws.set(StateKey::storage(addr_of(n + 1), U256{n}), U256{n + 41});
      pipe.submit(std::make_shared<WorldState>(ws), {},
                  [&](const commit::CommitResult&) { ++settled; });
      // Handle intentionally discarded — nobody awaits this commitment.
    }
  }  // ~CommitPipeline drains; destroyed state must not be touched after
  EXPECT_EQ(settled.load(), 8 * 4);
}

// ---------------------------------------------------------------------------
// Async integration: proposer / validator / pipeline / blockchain

evm::BlockContext ctx_for(std::uint64_t height) {
  evm::BlockContext ctx;
  ctx.number = height;
  ctx.timestamp = 1'700'000'000 + height * 12;
  ctx.coinbase = Address::from_id(0xC0FFEE);
  return ctx;
}

core::BlockBundle bundle_from(const WorldState& pre,
                              const std::vector<chain::Transaction>& txs,
                              std::uint64_t height) {
  const core::SerialResult r =
      core::execute_serial(pre, ctx_for(height), std::span(txs));
  core::BlockBundle b;
  b.block = core::seal_block(ctx_for(height), r.exec, r.included);
  b.profile = r.exec.profile;
  return b;
}

struct AsyncCommitFixture : ::testing::Test {
  workload::WorkloadGenerator gen{workload::preset_mainnet()};
  WorldState genesis = gen.genesis();
};

TEST_F(AsyncCommitFixture, ProposerAsyncSealMatchesInlineSeal) {
  auto propose = [&](commit::CommitPipeline* cp) {
    workload::WorkloadGenerator local{workload::preset_mainnet()};
    txpool::TxPool pool;
    pool.add_all(local.next_batch(60));
    core::ProposerConfig cfg;
    cfg.threads = 4;
    cfg.commit_pipeline = cp;
    core::OccWsiProposer proposer(cfg);
    return proposer.propose_virtual(genesis, ctx_for(1), pool);
  };

  const auto inline_sealed = propose(nullptr);

  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  auto async_sealed = propose(&pipe);
  ASSERT_TRUE(async_sealed.commit.valid());
  EXPECT_EQ(async_sealed.block.header.state_root, Hash256{});
  async_sealed.await_seal();

  EXPECT_EQ(async_sealed.block.header.state_root,
            inline_sealed.block.header.state_root);
  EXPECT_EQ(async_sealed.block.header.receipts_root,
            inline_sealed.block.header.receipts_root);
  EXPECT_EQ(async_sealed.block.header.logs_bloom,
            inline_sealed.block.header.logs_bloom);
}

TEST_F(AsyncCommitFixture, ValidatorAsyncRootCheckAcceptsHonestBlock) {
  const auto bundle = bundle_from(genesis, gen.next_batch(50), 1);

  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  core::ValidatorConfig vc;
  vc.threads = 4;
  vc.commit_pipeline = &pipe;
  core::BlockValidator validator(vc);
  ThreadPool workers(4);
  auto outcome = validator.validate(genesis, bundle.block, bundle.profile,
                                    workers);
  ASSERT_TRUE(outcome.valid) << outcome.reject_reason;  // provisional
  ASSERT_TRUE(outcome.commit.valid());
  EXPECT_TRUE(outcome.await_commit()) << outcome.reject_reason;
  EXPECT_EQ(outcome.exec.state_root, bundle.block.header.state_root);
}

TEST_F(AsyncCommitFixture, ValidatorAsyncRootCheckRejectsTamperedRoot) {
  auto bundle = bundle_from(genesis, gen.next_batch(30), 1);
  bundle.block.header.state_root.bytes[0] ^= 0xff;  // Byzantine header

  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  core::ValidatorConfig vc;
  vc.threads = 2;
  vc.commit_pipeline = &pipe;
  core::BlockValidator validator(vc);
  ThreadPool workers(2);
  auto outcome = validator.validate(genesis, bundle.block, bundle.profile,
                                    workers);
  ASSERT_TRUE(outcome.valid);  // execution-level: provisionally accepted
  EXPECT_FALSE(outcome.await_commit());
  EXPECT_EQ(outcome.reject_reason, "state root mismatch");
}

TEST_F(AsyncCommitFixture, PipelineAsyncMatchesSyncOverChain) {
  // Build a 3-height honest chain.
  std::vector<std::vector<core::BlockBundle>> heights;
  const WorldState* parent = &genesis;
  std::shared_ptr<const WorldState> holder;
  for (std::uint64_t h = 1; h <= 3; ++h) {
    auto bundle = bundle_from(*parent, gen.next_batch(25), h);
    core::SerialOptions opts;
    opts.drop_unincludable = false;
    const auto r = core::execute_serial(
        *parent, ctx_for(h), std::span(bundle.block.transactions), opts);
    ASSERT_TRUE(r.ok);
    holder = r.exec.post_state;
    parent = holder.get();
    heights.push_back({std::move(bundle)});
  }

  core::PipelineConfig sync_cfg;
  sync_cfg.workers = 4;
  core::PipelineConfig async_cfg = sync_cfg;
  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  async_cfg.commit_pipeline = &pipe;

  ThreadPool workers(4);
  const auto sync_result = core::ValidatorPipeline(sync_cfg).process_chain(
      genesis, std::span(heights), workers);
  const auto async_result = core::ValidatorPipeline(async_cfg).process_chain(
      genesis, std::span(heights), workers);

  ASSERT_EQ(sync_result.outcomes.size(), async_result.outcomes.size());
  EXPECT_EQ(async_result.stats.async_commits, 3u);
  for (std::size_t i = 0; i < sync_result.outcomes.size(); ++i) {
    EXPECT_EQ(sync_result.outcomes[i].valid, async_result.outcomes[i].valid)
        << async_result.outcomes[i].reject_reason;
    EXPECT_EQ(sync_result.outcomes[i].exec.state_root,
              async_result.outcomes[i].exec.state_root);
  }
}

TEST_F(AsyncCommitFixture, PipelineCascadesParentCommitFailure) {
  // Height 1's only block carries a tampered state root: execution-valid,
  // commitment-invalid.  The speculatively-validated height 2 must be
  // invalidated by the settle pass.
  auto b1 = bundle_from(genesis, gen.next_batch(20), 1);
  core::SerialOptions opts;
  opts.drop_unincludable = false;
  const auto r1 = core::execute_serial(
      genesis, ctx_for(1), std::span(b1.block.transactions), opts);
  ASSERT_TRUE(r1.ok);
  auto b2 = bundle_from(*r1.exec.post_state, gen.next_batch(20), 2);
  b1.block.header.state_root.bytes[0] ^= 0xff;

  std::vector<std::vector<core::BlockBundle>> heights = {{b1}, {b2}};
  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  core::PipelineConfig cfg;
  cfg.workers = 4;
  cfg.commit_pipeline = &pipe;
  ThreadPool workers(4);
  const auto result = core::ValidatorPipeline(cfg).process_chain(
      genesis, std::span(heights), workers);

  ASSERT_EQ(result.outcomes.size(), 2u);
  EXPECT_FALSE(result.outcomes[0].valid);
  EXPECT_EQ(result.outcomes[0].reject_reason, "state root mismatch");
  EXPECT_FALSE(result.outcomes[1].valid);
  EXPECT_EQ(result.outcomes[1].reject_reason, "parent block failed commitment");
}

TEST_F(AsyncCommitFixture, BlockchainCommitsFromHandle) {
  chain::Blockchain bc(genesis);

  txpool::TxPool pool;
  pool.add_all(gen.next_batch(40));
  ThreadPool commit_pool(2);
  commit::CommitPipeline pipe(&commit_pool);
  core::ProposerConfig cfg;
  cfg.threads = 4;
  cfg.commit_pipeline = &pipe;
  core::OccWsiProposer proposer(cfg);
  auto proposed = proposer.propose_virtual(*bc.head_state(), ctx_for(1), pool);
  ASSERT_TRUE(proposed.commit.valid());

  proposed.block.header.parent_hash = bc.head().header.hash();
  bc.commit_block(proposed.block, proposed.commit, proposed.receipts);

  EXPECT_EQ(bc.height(), 1u);
  const Hash256 head_root = bc.head().header.state_root;
  EXPECT_EQ(head_root, bc.head_state()->state_root());
  EXPECT_NE(head_root, Hash256{});
}

}  // namespace
}  // namespace blockpilot
