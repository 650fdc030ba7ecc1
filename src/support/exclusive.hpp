// The ownership test behind every copy-on-write structure in this library
// (trie nodes, PersistentMap tables and buckets): an object may be written
// in place only while its shared_ptr is the sole reference.
#pragma once

#include <memory>

namespace blockpilot {

/// True when `p` is the only reference.  use_count() reads the count
/// relaxed; the acq_rel increment of a throwaway copy makes the last reads
/// of every co-owner released on another thread happen before the caller's
/// in-place write.
template <class T>
bool exclusive(const std::shared_ptr<T>& p) {
  if (p.use_count() != 1) return false;
  [[maybe_unused]] const std::shared_ptr<T> acquire = p;
  return true;
}

}  // namespace blockpilot
