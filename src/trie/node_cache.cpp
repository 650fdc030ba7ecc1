#include "trie/node_cache.hpp"

#include <algorithm>
#include <cstring>

namespace blockpilot::trie {

NodeCache::NodeCache(std::size_t capacity_bytes)
    : shard_capacity_((capacity_bytes + kShards - 1) / kShards) {}

namespace {

// splitmix64 finalizer: derives the sketch's 4 counter indexes from one
// fingerprint without storing 4 hashes.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Sketch fingerprint: the digest's leading 8 bytes.  A keccak digest is
// already uniform, so no further hashing is needed.
std::uint64_t fingerprint(const Hash256& h) noexcept {
  std::uint64_t fp;
  std::memcpy(&fp, h.bytes.data(), sizeof(fp));
  return fp;
}

}  // namespace

void NodeCache::FreqSketch::record(std::uint64_t fp) noexcept {
  std::uint64_t h = fp;
  for (int i = 0; i < 4; ++i) {
    h = mix64(h);
    std::uint8_t& c = counters[h & (kCounters - 1)];
    if (c < kMaxCount) ++c;
  }
  if (++samples >= kSamplePeriod) {
    // Aging: halve every counter so popularity is recent, not eternal.
    for (std::uint8_t& c : counters) c >>= 1;
    samples >>= 1;
  }
}

std::uint32_t NodeCache::FreqSketch::estimate(std::uint64_t fp) const noexcept {
  std::uint32_t est = kMaxCount;
  std::uint64_t h = fp;
  for (int i = 0; i < 4; ++i) {
    h = mix64(h);
    est = std::min<std::uint32_t>(est, counters[h & (kCounters - 1)]);
  }
  return est;
}

void NodeCache::FreqSketch::reset() noexcept {
  counters.fill(0);
  samples = 0;
}

// CLOCK sweep to the next victim.  Referenced entries get their second
// chance (bit cleared, hand advances); the sweep stops at the first
// unreferenced entry.  Terminates in at most two passes over the ring
// because every skip clears a bit.  Precondition: the ring is non-empty.
NodeCache::MapNode* NodeCache::clock_victim(Shard& s) {
  for (;;) {
    if (s.hand == s.ring.end()) s.hand = s.ring.begin();
    MapNode* node = *s.hand;
    if (node->second.referenced) {
      node->second.referenced = false;
      ++s.hand;
      continue;
    }
    return node;
  }
}

// One CLOCK sweep step ending in an eviction of the current victim.
void NodeCache::evict_one(Shard& s) {
  MapNode* node = clock_victim(s);
  s.bytes -= entry_bytes(node->second.encoding.size());
  s.hand = s.ring.erase(s.hand);
  s.entries.erase(s.entries.find(node->first));
  ++s.evictions;
}

std::optional<std::vector<std::uint8_t>> NodeCache::find(const Hash256& h) {
  if (shard_capacity_.load(std::memory_order_relaxed) == 0) {
    bypassed_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  Shard& s = shards_[shard_index(h)];
  std::scoped_lock lk(s.mu);
  s.sketch.record(fingerprint(h));
  const auto it = s.entries.find(h);
  if (it == s.entries.end()) {
    ++s.misses;
    return std::nullopt;
  }
  ++s.hits;
  it->second.referenced = true;  // second chance on the next sweep
  return it->second.encoding;
}

void NodeCache::insert(const Hash256& h,
                       std::span<const std::uint8_t> encoding) {
  const std::size_t cap = shard_capacity_.load(std::memory_order_relaxed);
  const std::size_t need = entry_bytes(encoding.size());
  if (need > cap) {  // capacity 0, or a jumbo entry never worth a shard
    bypassed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Shard& s = shards_[shard_index(h)];
  std::scoped_lock lk(s.mu);
  if (s.entries.contains(h)) return;
  if (s.bytes + need > cap && !s.ring.empty()) {
    // TinyLFU admission: a full shard only trades its CLOCK victim for a
    // candidate at least as frequent.  Ties admit, so a workload with no
    // re-use (every estimate equal) degenerates to plain CLOCK/FIFO;
    // one-shot scan traffic against a reheated working set is rejected here.
    const MapNode* victim = clock_victim(s);
    if (s.sketch.estimate(fingerprint(h)) <
        s.sketch.estimate(fingerprint(victim->first))) {
      ++s.rejected;
      return;
    }
  }
  while (s.bytes + need > cap && !s.ring.empty()) evict_one(s);
  const auto slot =
      s.entries
          .emplace(h, Entry{{encoding.begin(), encoding.end()},
                            /*referenced=*/false})
          .first;
  // Insert just behind the hand: the new entry is the last the current
  // sweep cycle examines, so with no intervening hits the eviction order is
  // exactly insertion order (FIFO with second chances).
  s.ring.insert(s.hand, &*slot);
  s.bytes += need;
}

NodeCache::Stats NodeCache::stats() const {
  Stats out;
  out.capacity = shard_capacity_.load(std::memory_order_relaxed) * kShards;
  out.bypassed = bypassed_.load(std::memory_order_relaxed);
  out.load_hits = load_hits_.load(std::memory_order_relaxed);
  out.load_misses = load_misses_.load(std::memory_order_relaxed);
  for (const Shard& s : shards_) {
    std::scoped_lock lk(s.mu);
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
    out.rejected += s.rejected;
    out.entries += s.entries.size();
    out.bytes += s.bytes;
  }
  return out;
}

void NodeCache::clear() {
  for (Shard& s : shards_) {
    std::scoped_lock lk(s.mu);
    s.entries.clear();
    s.ring.clear();
    s.hand = s.ring.end();
    s.sketch.reset();
    s.bytes = 0;
  }
}

void NodeCache::reset_stats() {
  for (Shard& s : shards_) {
    std::scoped_lock lk(s.mu);
    s.hits = s.misses = s.evictions = s.rejected = 0;
  }
  bypassed_.store(0, std::memory_order_relaxed);
  load_hits_.store(0, std::memory_order_relaxed);
  load_misses_.store(0, std::memory_order_relaxed);
}

void NodeCache::set_capacity(std::size_t capacity_bytes) {
  const std::size_t per_shard = (capacity_bytes + kShards - 1) / kShards;
  shard_capacity_.store(per_shard, std::memory_order_relaxed);
  for (Shard& s : shards_) {
    std::scoped_lock lk(s.mu);
    while (s.bytes > per_shard && !s.ring.empty()) evict_one(s);
  }
}

std::size_t NodeCache::capacity() const {
  return shard_capacity_.load(std::memory_order_relaxed) * kShards;
}

NodeCache& NodeCache::global() {
  static NodeCache cache;
  return cache;
}

}  // namespace blockpilot::trie
