// A transaction's (sender, nonce) slot: the unit the pool admits, replaces
// and commits at most once.
#pragma once

#include <cstdint>
#include <functional>

#include "types/address.hpp"

namespace e2e {

struct Slot {
  blockpilot::Address sender;
  std::uint64_t nonce = 0;

  friend bool operator==(const Slot&, const Slot&) = default;
};

struct SlotHash {
  std::size_t operator()(const Slot& s) const noexcept {
    return std::hash<blockpilot::Address>{}(s.sender) ^
           (s.nonce * 0x9e37'79b9'7f4a'7c15ULL);
  }
};

}  // namespace e2e
