// NodeCache: a bounded read cache of MPT node encodings, keyed by node hash.
//
// A trie reopened from a NodeStore (MerklePatriciaTrie::from_root) starts as
// a single stub and materializes each node from disk on first traversal.
// This cache sits in front of that load: detail::load_stub asks find(hash)
// first and, on a miss, fetches from the store, checks that the encoding
// hashes to its reference, and insert()s it.  Node hashing itself never
// touches the cache — each node memoizes its own reference
// (MptNode::cached_ref), so a global hash-consing table would only ever see
// freshly built nodes and pay its lookups for nothing.
//
// Keys are keccak digests, which are already uniform, so the shard and the
// admission sketch's fingerprint are read straight off the digest's leading
// bytes — no second hash over the encoding.
//
// Capacity is accounted in *bytes* (encoding length plus a fixed per-entry
// overhead), not entry counts, so a cache full of fat branch nodes and one
// full of slim leaves bound the same memory.  Eviction is CLOCK
// (second-chance): a hit sets the entry's reference bit; the sweep hand
// clears set bits and evicts the first clear entry it meets, so the policy
// degenerates to FIFO exactly when nothing is re-used.  Admission is
// TinyLFU-style: each shard keeps a count-min frequency sketch over the
// hashes it is asked for, and an insert into a full shard is admitted only
// when the candidate's estimated frequency is at least the CLOCK victim's —
// one-shot loads from big-state scans stop cycling hot shards, while an
// equal-frequency candidate still wins so a pure-FIFO workload behaves
// exactly as plain CLOCK.  Sharded so concurrent loads on the commit pool do
// not serialize on one mutex.  Lookup, eviction, rejection and byte counters
// plus the trie's stub-load counters are exposed for benches and tests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "types/address.hpp"

namespace blockpilot::trie {

class NodeCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;    // find() calls answered from the cache
    std::uint64_t misses = 0;  // find() calls that were not
    std::uint64_t evictions = 0;
    std::uint64_t rejected = 0;  // inserts denied admission by the sketch
    std::uint64_t bypassed = 0;  // calls that skipped the cache entirely
                                 // (capacity 0, or a jumbo insert)
    std::uint64_t load_hits = 0;    // disk-backed stub loads served here
    std::uint64_t load_misses = 0;  // stub loads that had to hit the store
    std::size_t entries = 0;
    std::size_t bytes = 0;     // resident, per entry_bytes()
    std::size_t capacity = 0;  // byte budget across all shards
  };

  /// Default byte budget.
  static constexpr std::size_t kDefaultCapacity = std::size_t{16} << 20;

  /// Fixed accounting overhead charged per entry on top of the encoding
  /// length: key digest (32B) plus map/ring bookkeeping.
  static constexpr std::size_t kEntryOverhead = 96;

  /// Bytes one cached entry of the given encoding length is charged.
  static constexpr std::size_t entry_bytes(std::size_t encoding_size) noexcept {
    return encoding_size + kEntryOverhead;
  }

  explicit NodeCache(std::size_t capacity_bytes = kDefaultCapacity);

  /// The cached encoding of the node with hash `h`, or nullopt.  A hit sets
  /// the entry's CLOCK reference bit; hit or miss, the lookup counts toward
  /// the hash's admission frequency.  At capacity 0 the cache is bypassed.
  std::optional<std::vector<std::uint8_t>> find(const Hash256& h);

  /// Offers `encoding` (whose keccak must be `h`; the caller verifies) for
  /// caching.  An encoding whose entry_bytes() alone exceeds a shard's
  /// budget is never cached, nor is anything at capacity 0; a full shard
  /// admits it only past the TinyLFU check.  Re-inserting a resident hash
  /// is a no-op.
  void insert(const Hash256& h, std::span<const std::uint8_t> encoding);

  /// Read-through accounting for the trie's disk-backed stub loads (the
  /// load itself lives in mpt.cpp; the cache only owns the counters so one
  /// stats() struct tells the whole hit/miss story).
  void count_load_hit() noexcept {
    load_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_load_miss() noexcept {
    load_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Aggregate statistics over all shards.
  Stats stats() const;

  /// Drops every entry (counters survive; see reset_stats).
  void clear();
  void reset_stats();

  /// Rebounds the byte budget; shrinking evicts by CLOCK sweep.  Capacity 0
  /// bypasses the cache entirely.
  void set_capacity(std::size_t capacity_bytes);
  std::size_t capacity() const;

  /// The process-wide cache the trie layer's stub loads read through.
  static NodeCache& global();

  static constexpr std::size_t kShards = 8;

  /// The shard a hash lives in: the low bits of its first byte.
  static constexpr std::size_t shard_index(const Hash256& h) noexcept {
    return h.bytes[0] % kShards;
  }

 private:
  struct Entry {
    std::vector<std::uint8_t> encoding;
    bool referenced = false;  // CLOCK second-chance bit, set on hit
  };
  // Map nodes are pointer-stable across rehash, so the ring addresses
  // entries by node pointer.
  using MapNode = std::pair<const Hash256, Entry>;

  /// TinyLFU-style count-min frequency sketch: 4 saturating 4-bit-equivalent
  /// counters per fingerprint, halved wholesale every kSamplePeriod records
  /// so stale popularity decays instead of pinning the shard forever.
  struct FreqSketch {
    static constexpr std::size_t kCounters = 4096;  // power of two
    static constexpr std::uint8_t kMaxCount = 15;
    static constexpr std::uint64_t kSamplePeriod = 16 * kCounters;

    void record(std::uint64_t fp) noexcept;
    std::uint32_t estimate(std::uint64_t fp) const noexcept;
    void reset() noexcept;

    std::array<std::uint8_t, kCounters> counters{};
    std::uint64_t samples = 0;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<Hash256, Entry> entries;
    std::list<MapNode*> ring;            // CLOCK order; new entries join
    std::list<MapNode*>::iterator hand;  // behind the hand
    FreqSketch sketch;                   // admission filter
    std::size_t bytes = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rejected = 0;

    Shard() : hand(ring.end()) {}
  };

  /// Advances the hand to the entry the next eviction would take (clearing
  /// reference bits on the way) without evicting it.  Precondition: the
  /// ring is non-empty.
  static MapNode* clock_victim(Shard& s);
  static void evict_one(Shard& s);

  std::array<Shard, kShards> shards_;
  std::atomic<std::size_t> shard_capacity_;  // byte budget per shard
  std::atomic<std::uint64_t> bypassed_{0};
  std::atomic<std::uint64_t> load_hits_{0};
  std::atomic<std::uint64_t> load_misses_{0};
};

}  // namespace blockpilot::trie
