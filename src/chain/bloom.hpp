// Ethereum-style 2048-bit logs bloom filter (yellow paper §4.3.1, the M
// function): each indexable item (log address, log topic) sets three bits
// chosen by the low 11 bits of byte pairs 0-1, 2-3 and 4-5 of its
// Keccak-256 digest.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "crypto/keccak.hpp"

namespace blockpilot::chain {

class Bloom {
 public:
  static constexpr std::size_t kBytes = 256;  // 2048 bits

  constexpr Bloom() noexcept = default;

  /// Sets the three bloom bits for one indexable byte string.
  void add(std::span<const std::uint8_t> item) noexcept {
    add_digest(crypto::keccak256(item));
  }

  /// The same, from the item's keccak256 digest (for batch-hashed items).
  void add_digest(const crypto::Digest& digest) noexcept {
    for (int pair = 0; pair < 3; ++pair) {
      const std::size_t bit = bit_index(digest, pair);
      bits_[kBytes - 1 - bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }

  /// Conservative membership test: false means definitely absent.
  bool may_contain(std::span<const std::uint8_t> item) const noexcept {
    const crypto::Digest digest = crypto::keccak256(item);
    for (int pair = 0; pair < 3; ++pair) {
      const std::size_t bit = bit_index(digest, pair);
      if ((bits_[kBytes - 1 - bit / 8] &
           static_cast<std::uint8_t>(1u << (bit % 8))) == 0)
        return false;
    }
    return true;
  }

  /// Merges another bloom (block bloom = union of receipt blooms).
  void merge(const Bloom& other) noexcept {
    for (std::size_t i = 0; i < kBytes; ++i) bits_[i] |= other.bits_[i];
  }

  bool empty() const noexcept {
    for (const auto b : bits_)
      if (b != 0) return false;
    return true;
  }

  const std::array<std::uint8_t, kBytes>& bytes() const noexcept {
    return bits_;
  }

  /// Reconstructs a bloom from its 256-byte wire representation.
  static Bloom from_bytes(std::span<const std::uint8_t> raw) noexcept {
    Bloom b;
    if (raw.size() == kBytes)
      std::copy(raw.begin(), raw.end(), b.bits_.begin());
    return b;
  }

  friend bool operator==(const Bloom&, const Bloom&) noexcept = default;

 private:
  // The low 11 bits of digest byte pair `pair` (bytes 2*pair, 2*pair+1).
  static std::size_t bit_index(const crypto::Digest& digest, int pair) noexcept {
    const auto i = static_cast<std::size_t>(pair) * 2;
    return ((static_cast<std::size_t>(digest[i]) << 8) | digest[i + 1]) & 0x7ff;
  }

  std::array<std::uint8_t, kBytes> bits_{};
};

}  // namespace blockpilot::chain
