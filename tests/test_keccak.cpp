#include "crypto/keccak.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "types/address.hpp"

namespace blockpilot::crypto {
namespace {

std::string hex(const Digest& d) {
  return blockpilot::hex_encode(std::span(d));
}

TEST(Keccak, EmptyInput) {
  // The canonical Keccak-256("") digest — also Ethereum's empty code hash.
  EXPECT_EQ(hex(keccak256("")),
            "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak, Abc) {
  EXPECT_EQ(hex(keccak256("abc")),
            "0x4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak, QuickBrownFox) {
  EXPECT_EQ(hex(keccak256("The quick brown fox jumps over the lazy dog")),
            "0x4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(Keccak, EmptyRlpString) {
  // keccak256(0x80): the canonical empty-MPT root.
  const std::uint8_t byte = 0x80;
  EXPECT_EQ(hex(keccak256(std::span(&byte, 1))),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
}

TEST(Keccak, IncrementalMatchesOneShot) {
  const std::string payload(1000, 'x');
  Keccak256 h;
  // Feed in awkward chunk sizes crossing the 136-byte rate boundary.
  std::size_t pos = 0;
  for (const std::size_t chunk : {1ul, 7ul, 135ul, 136ul, 137ul, 500ul}) {
    const std::size_t take = std::min(chunk, payload.size() - pos);
    h.update(std::span(reinterpret_cast<const std::uint8_t*>(payload.data()) + pos,
                       take));
    pos += take;
  }
  h.update(std::span(reinterpret_cast<const std::uint8_t*>(payload.data()) + pos,
                     payload.size() - pos));
  EXPECT_EQ(h.finalize(), keccak256(payload));
}

TEST(Keccak, FinalizeResetsState) {
  Keccak256 h;
  h.update(std::span(reinterpret_cast<const std::uint8_t*>("abc"), 3));
  (void)h.finalize();
  EXPECT_EQ(h.finalize(), keccak256(""));  // fresh state after finalize
}

TEST(Keccak, RateBoundaryLengths) {
  // Exactly rate-sized and rate+-1 inputs exercise the padding edge cases.
  for (const std::size_t len : {135ul, 136ul, 137ul, 271ul, 272ul, 273ul}) {
    const std::string payload(len, 'q');
    Keccak256 h;
    h.update(std::span(reinterpret_cast<const std::uint8_t*>(payload.data()),
                       payload.size()));
    EXPECT_EQ(h.finalize(), keccak256(payload)) << "len=" << len;
  }
}

TEST(Keccak, GoldenDigestsAcrossRateBoundaries) {
  // Digests captured from the original loop-form permutation before it was
  // unrolled.  Byte i of each input is (31 * i + 7) mod 256, so every lane
  // of every absorbed block differs and a misplaced lane index or rotation
  // changes the digest.  Lengths straddle the empty, single-byte, one-word
  // and 136-byte rate boundaries and run several blocks long.
  struct Golden {
    std::size_t len;
    const char* digest;
  };
  const Golden kGolden[] = {
      {0, "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
      {1, "ee2a4bc7db81da2b7164e56b3649b1e2a09c58c455b15dabddd9146c7582cebc"},
      {31, "e26887732fb2b99d9de7c6198e8af62233e786b072008f63e51bc0e005007891"},
      {32, "dc7b69b8512dce347cacd51f7cff541905fdb5fabb71b37dc6b271c152bc8efc"},
      {135, "adee8145bb33dc0320ad44945eeeb391e4668f0f7c69ccbbf6550a7cba245e52"},
      {136, "eaccfc5aa7bf6bf1941809ef7cc9ee6a2fa306a7dd1de3f2e8504849b0a5e3c4"},
      {137, "ea0e0b9657469f0b4f53604f1068ab4bd4a5e7b0a458d24a78f1fe2ec7bd4db0"},
      {271, "407871b419dca15e033dd9777154af2116326a7849eacadbc46b1618055ee0a2"},
      {272, "c62d6a60780d4e03408834062e58004a549cff1c7487c0b9a130810621b0fcae"},
      {273, "b47ca693c8d675afa3b0b644da6dc96613f07c6f8971f9a0077ed6b7c994561d"},
      {1000, "c77d9bffcae9f0984e6dff7eea63cc14cad5f367f791e27b08a1953f192f30a5"},
  };
  for (const Golden& g : kGolden) {
    std::vector<std::uint8_t> data(g.len);
    for (std::size_t i = 0; i < g.len; ++i)
      data[i] = static_cast<std::uint8_t>(31 * i + 7);
    EXPECT_EQ(hex(keccak256(std::span(data))), std::string("0x") + g.digest)
        << "len=" << g.len;
    // The incremental path, fed in 7-byte chunks, must land on the same
    // digest.
    Keccak256 h;
    for (std::size_t pos = 0; pos < g.len; pos += 7)
      h.update(std::span(data).subspan(pos, std::min<std::size_t>(7, g.len - pos)));
    EXPECT_EQ(hex(h.finalize()), std::string("0x") + g.digest)
        << "incremental len=" << g.len;
  }
}

// keccak256_batch must equal keccak256 input by input, both as this CPU
// dispatches it and through the 8-lane AVX-512 kernel called directly:
// every length 0..700 in one call (groups of every rate-block count, full
// and short), then batches of 1..17 mixed lengths (the scalar tail, padded
// ways and several groups per call).
enum class BatchPath { kDispatched, kAvx512 };

class KeccakBatch : public ::testing::TestWithParam<BatchPath> {
 protected:
  void SetUp() override {
    if (GetParam() == BatchPath::kAvx512 && !detail::avx512_batch_supported())
      GTEST_SKIP() << "CPU lacks avx512f";
  }

  void expect_matches_scalar(const std::vector<std::vector<std::uint8_t>>& data) {
    std::vector<std::span<const std::uint8_t>> inputs(data.begin(), data.end());
    std::vector<Digest> out(inputs.size());
    if (GetParam() == BatchPath::kAvx512)
      detail::keccak256_batch_avx512(inputs, out);
    else
      keccak256_batch(inputs, out);
    for (std::size_t i = 0; i < inputs.size(); ++i)
      ASSERT_EQ(out[i], keccak256(inputs[i]))
          << "input " << i << " of " << inputs.size() << ", len "
          << inputs[i].size();
  }
};

std::vector<std::uint8_t> patterned(std::size_t len, std::size_t salt) {
  std::vector<std::uint8_t> v(len);
  for (std::size_t i = 0; i < len; ++i)
    v[i] = static_cast<std::uint8_t>(31 * i + 7 * salt + 1);
  return v;
}

TEST_P(KeccakBatch, EveryLengthUpTo700) {
  std::vector<std::vector<std::uint8_t>> data;
  for (std::size_t len = 0; len <= 700; ++len) data.push_back(patterned(len, len));
  expect_matches_scalar(data);
}

TEST_P(KeccakBatch, MixedLengthBatchesOf1To17) {
  std::uint64_t rng = 0x9E3779B97F4A7C15ULL;
  const auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (std::size_t n = 1; n <= 17; ++n) {
    for (int round = 0; round < 20; ++round) {
      std::vector<std::vector<std::uint8_t>> data;
      for (std::size_t i = 0; i < n; ++i)
        data.push_back(patterned(next() % 701, next()));
      expect_matches_scalar(data);
    }
  }
}

TEST_P(KeccakBatch, EmptyBatch) { expect_matches_scalar({}); }

INSTANTIATE_TEST_SUITE_P(Paths, KeccakBatch,
                         ::testing::Values(BatchPath::kDispatched,
                                           BatchPath::kAvx512),
                         [](const auto& info) {
                           return info.param == BatchPath::kDispatched
                                      ? std::string("Dispatched")
                                      : std::string("Avx512");
                         });

TEST(Keccak, DistinctInputsDistinctDigests) {
  EXPECT_NE(keccak256("a"), keccak256("b"));
  EXPECT_NE(keccak256(""), keccak256(std::string(1, '\0')));
}

}  // namespace
}  // namespace blockpilot::crypto
