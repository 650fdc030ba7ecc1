// PersistentMap: a copy-on-write hash map whose copies share every bucket
// they do not write.
//
// The map is a fixed-fanout table of shared_ptr buckets, each a short vector
// of entries.  Copying a map copies one pointer.  A write clones the table
// (Fanout pointers) and the one bucket it touches unless they are already
// private, so a copy that then writes k keys pays O(Fanout + k * bucket)
// and shares everything else with its source.  Privacy is the same
// exclusive() ownership test trie::owned() uses.
//
// Thread-safety matches WorldState: concurrent const access (including
// copying) is safe; writes must not race with any other access to the same
// map object.  Writes never mutate a shared table or bucket, so a writer
// cannot disturb other maps sharing its structure, on any thread.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "support/exclusive.hpp"

namespace blockpilot::state {

template <class K, class V, std::size_t Fanout, class Hash = std::hash<K>>
class PersistentMap {
  static_assert(Fanout >= 2 && (Fanout & (Fanout - 1)) == 0,
                "fanout must be a power of two");

 public:
  using Entry = std::pair<K, V>;

  std::size_t size() const noexcept {
    return table_ == nullptr ? 0 : table_->size;
  }
  bool empty() const noexcept { return size() == 0; }

  /// The value for `key`, or nullptr when absent.  The pointer is valid
  /// until the next write to this map.
  const V* find(const K& key) const {
    if (table_ == nullptr) return nullptr;
    const auto& bucket = table_->buckets[index_of(key)];
    if (bucket == nullptr) return nullptr;
    for (const Entry& e : *bucket)
      if (e.first == key) return &e.second;
    return nullptr;
  }

  bool contains(const K& key) const { return find(key) != nullptr; }

  /// Mutable access to the value for `key`, default-constructing it when
  /// absent.  Makes the table and the key's bucket private first.
  V& operator[](const K& key) {
    Bucket& bucket = own_bucket(index_of(key));
    for (Entry& e : bucket)
      if (e.first == key) return e.second;
    ++table_->size;
    return bucket.emplace_back(key, V{}).second;
  }

  /// Removes `key`; returns whether it was present.  Shared structure is
  /// only cloned when the key is actually there.
  bool erase(const K& key) {
    if (!contains(key)) return false;
    const std::size_t i = index_of(key);
    Bucket& bucket = own_bucket(i);
    for (auto it = bucket.begin(); it != bucket.end(); ++it) {
      if (it->first != key) continue;
      if (it + 1 != bucket.end()) *it = std::move(bucket.back());
      bucket.pop_back();
      break;
    }
    if (bucket.empty()) table_->buckets[i] = nullptr;
    --table_->size;
    return true;
  }

  /// Calls f(key, value) for every entry, in unspecified order.
  template <class F>
  void for_each(F&& f) const {
    if (table_ == nullptr) return;
    for (const auto& bucket : table_->buckets) {
      if (bucket == nullptr) continue;
      for (const Entry& e : *bucket) f(e.first, e.second);
    }
  }

 private:
  using Bucket = std::vector<Entry>;
  struct Table {
    std::array<std::shared_ptr<Bucket>, Fanout> buckets;
    std::size_t size = 0;  // entries across all buckets
  };

  static std::size_t index_of(const K& key) {
    // Fibonacci mixing: the top bits of the product depend on every bit
    // of the hash, so weak low bits still spread across buckets.
    constexpr unsigned kShift = 64 - std::countr_zero(Fanout);
    const auto h = static_cast<std::uint64_t>(Hash{}(key));
    return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ULL) >> kShift);
  }

  Bucket& own_bucket(std::size_t i) {
    if (table_ == nullptr)
      table_ = std::make_shared<Table>();
    else if (!exclusive(table_))
      table_ = std::make_shared<Table>(*table_);
    auto& bucket = table_->buckets[i];
    if (bucket == nullptr)
      bucket = std::make_shared<Bucket>();
    else if (!exclusive(bucket))
      bucket = std::make_shared<Bucket>(*bucket);
    return *bucket;
  }

  std::shared_ptr<Table> table_;
};

}  // namespace blockpilot::state
