// Keccak-256 as used by Ethereum (original Keccak padding 0x01, NOT the
// NIST SHA3-256 variant whose domain byte is 0x06).
//
// Every state commitment in this system — trie node hashes, account storage
// roots, the world-state root that validators compare against the proposed
// block header — is a Keccak-256 digest, so this is a full Keccak-f[1600]
// implementation rather than a stand-in hash.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace blockpilot::crypto {

using Digest = std::array<std::uint8_t, 32>;

/// One-shot Keccak-256 over a byte span.
Digest keccak256(std::span<const std::uint8_t> data) noexcept;

/// Convenience overload for string literals / std::string payloads.
Digest keccak256(std::string_view data) noexcept;

/// Hashes many inputs at once: out[i] = keccak256(inputs[i]).  On a CPU
/// with avx512f, inputs with the same rate-block count go through an 8-lane
/// AVX-512 permutation eight at a time and groups smaller than three hash
/// one by one; without it every input hashes one by one.  `out` must hold
/// exactly one digest per input.
void keccak256_batch(std::span<const std::span<const std::uint8_t>> inputs,
                     std::span<Digest> out) noexcept;

namespace detail {

/// Whether this CPU has avx512f, which keccak256_batch's 8-lane kernel needs.
bool avx512_batch_supported() noexcept;

/// keccak256_batch through the 8-lane kernel; the CPU must support it.
/// Exposed so tests and benchmarks reach the kernel directly.
void keccak256_batch_avx512(
    std::span<const std::span<const std::uint8_t>> inputs,
    std::span<Digest> out) noexcept;

}  // namespace detail

/// Incremental hasher for multi-part inputs (e.g. RLP streams).
class Keccak256 {
 public:
  Keccak256() noexcept = default;

  void update(std::span<const std::uint8_t> data) noexcept;
  Digest finalize() noexcept;  // resets the hasher afterwards

 private:
  void absorb_block() noexcept;

  static constexpr std::size_t kRate = 136;  // 1088-bit rate for Keccak-256
  std::array<std::uint64_t, 25> state_{};
  std::array<std::uint8_t, kRate> buffer_{};
  std::size_t buffered_ = 0;
};

}  // namespace blockpilot::crypto
