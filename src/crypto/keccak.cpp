#include "crypto/keccak.hpp"

#include <cstring>
#include <vector>

#include "support/assert.hpp"

namespace blockpilot::crypto {
namespace {

constexpr std::array<std::uint64_t, 24> kRoundConstants = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

constexpr std::size_t kRate = 136;  // 1088-bit rate for Keccak-256
constexpr std::size_t kRateWords = kRate / 8;

// A macro rather than a function so that vector lanes never pass by value
// outside the AVX-512 target (that changes the ABI).
#define BP_ROL(x, k) (((x) << (k)) | ((x) >> (64 - (k))))

// One Keccak-f[1600] round from the lanes named A## into those named E##.
// Lane names are row (b, g, k, m, s = y 0..4) then column (a, e, i, o, u =
// x 0..4).  Each output row is chi over five theta-adjusted lanes carried
// there by rho + pi; round constant `rc` is iota.
#define BP_KECCAK_ROUND(A, E, rc)                                           \
  do {                                                                      \
    Ca = A##ba ^ A##ga ^ A##ka ^ A##ma ^ A##sa;                             \
    Ce = A##be ^ A##ge ^ A##ke ^ A##me ^ A##se;                             \
    Ci = A##bi ^ A##gi ^ A##ki ^ A##mi ^ A##si;                             \
    Co = A##bo ^ A##go ^ A##ko ^ A##mo ^ A##so;                             \
    Cu = A##bu ^ A##gu ^ A##ku ^ A##mu ^ A##su;                             \
    Da = Cu ^ BP_ROL(Ce, 1);                                                \
    De = Ca ^ BP_ROL(Ci, 1);                                                \
    Di = Ce ^ BP_ROL(Co, 1);                                                \
    Do = Ci ^ BP_ROL(Cu, 1);                                                \
    Du = Co ^ BP_ROL(Ca, 1);                                                \
                                                                            \
    Ba = A##ba ^ Da;                                                        \
    Be = BP_ROL(A##ge ^ De, 44);                                            \
    Bi = BP_ROL(A##ki ^ Di, 43);                                            \
    Bo = BP_ROL(A##mo ^ Do, 21);                                            \
    Bu = BP_ROL(A##su ^ Du, 14);                                            \
    E##ba = Ba ^ (~Be & Bi) ^ (rc);                                         \
    E##be = Be ^ (~Bi & Bo);                                                \
    E##bi = Bi ^ (~Bo & Bu);                                                \
    E##bo = Bo ^ (~Bu & Ba);                                                \
    E##bu = Bu ^ (~Ba & Be);                                                \
                                                                            \
    Ba = BP_ROL(A##bo ^ Do, 28);                                            \
    Be = BP_ROL(A##gu ^ Du, 20);                                            \
    Bi = BP_ROL(A##ka ^ Da, 3);                                             \
    Bo = BP_ROL(A##me ^ De, 45);                                            \
    Bu = BP_ROL(A##si ^ Di, 61);                                            \
    E##ga = Ba ^ (~Be & Bi);                                                \
    E##ge = Be ^ (~Bi & Bo);                                                \
    E##gi = Bi ^ (~Bo & Bu);                                                \
    E##go = Bo ^ (~Bu & Ba);                                                \
    E##gu = Bu ^ (~Ba & Be);                                                \
                                                                            \
    Ba = BP_ROL(A##be ^ De, 1);                                             \
    Be = BP_ROL(A##gi ^ Di, 6);                                             \
    Bi = BP_ROL(A##ko ^ Do, 25);                                            \
    Bo = BP_ROL(A##mu ^ Du, 8);                                             \
    Bu = BP_ROL(A##sa ^ Da, 18);                                            \
    E##ka = Ba ^ (~Be & Bi);                                                \
    E##ke = Be ^ (~Bi & Bo);                                                \
    E##ki = Bi ^ (~Bo & Bu);                                                \
    E##ko = Bo ^ (~Bu & Ba);                                                \
    E##ku = Bu ^ (~Ba & Be);                                                \
                                                                            \
    Ba = BP_ROL(A##bu ^ Du, 27);                                            \
    Be = BP_ROL(A##ga ^ Da, 36);                                            \
    Bi = BP_ROL(A##ke ^ De, 10);                                            \
    Bo = BP_ROL(A##mi ^ Di, 15);                                            \
    Bu = BP_ROL(A##so ^ Do, 56);                                            \
    E##ma = Ba ^ (~Be & Bi);                                                \
    E##me = Be ^ (~Bi & Bo);                                                \
    E##mi = Bi ^ (~Bo & Bu);                                                \
    E##mo = Bo ^ (~Bu & Ba);                                                \
    E##mu = Bu ^ (~Ba & Be);                                                \
                                                                            \
    Ba = BP_ROL(A##bi ^ Di, 62);                                            \
    Be = BP_ROL(A##go ^ Do, 55);                                            \
    Bi = BP_ROL(A##ku ^ Du, 39);                                            \
    Bo = BP_ROL(A##ma ^ Da, 41);                                            \
    Bu = BP_ROL(A##se ^ De, 2);                                             \
    E##sa = Ba ^ (~Be & Bi);                                                \
    E##se = Be ^ (~Bi & Bo);                                                \
    E##si = Bi ^ (~Bo & Bu);                                                \
    E##so = Bo ^ (~Bu & Ba);                                                \
    E##su = Bu ^ (~Ba & Be);                                                \
  } while (0)

// Keccak-f[1600] in state-in-registers form: the 25 lanes live in named
// locals and each loop iteration runs two rounds, A -> E then E -> A, so no
// round copies the state.  L is std::uint64_t for one state, or a GCC
// vector of them for as many independent states at once: every operator
// acts lane-wise, so one source serves the scalar and the batched hashers.
template <class L>
[[gnu::always_inline]] inline void keccak_f1600(L* s) noexcept {
  L Aba = s[0], Abe = s[1], Abi = s[2], Abo = s[3], Abu = s[4];
  L Aga = s[5], Age = s[6], Agi = s[7], Ago = s[8], Agu = s[9];
  L Aka = s[10], Ake = s[11], Aki = s[12], Ako = s[13], Aku = s[14];
  L Ama = s[15], Ame = s[16], Ami = s[17], Amo = s[18], Amu = s[19];
  L Asa = s[20], Ase = s[21], Asi = s[22], Aso = s[23], Asu = s[24];
  L Eba, Ebe, Ebi, Ebo, Ebu, Ega, Ege, Egi, Ego, Egu, Eka, Eke, Eki, Eko,
      Eku, Ema, Eme, Emi, Emo, Emu, Esa, Ese, Esi, Eso, Esu;
  L Ba, Be, Bi, Bo, Bu, Ca, Ce, Ci, Co, Cu, Da, De, Di, Do, Du;
  for (std::size_t round = 0; round < 24; round += 2) {
    BP_KECCAK_ROUND(A, E, kRoundConstants[round]);
    BP_KECCAK_ROUND(E, A, kRoundConstants[round + 1]);
  }
  s[0] = Aba, s[1] = Abe, s[2] = Abi, s[3] = Abo, s[4] = Abu;
  s[5] = Aga, s[6] = Age, s[7] = Agi, s[8] = Ago, s[9] = Agu;
  s[10] = Aka, s[11] = Ake, s[12] = Aki, s[13] = Ako, s[14] = Aku;
  s[15] = Ama, s[16] = Ame, s[17] = Ami, s[18] = Amo, s[19] = Amu;
  s[20] = Asa, s[21] = Ase, s[22] = Asi, s[23] = Aso, s[24] = Asu;
}

#undef BP_KECCAK_ROUND
#undef BP_ROL

// ---------------------------------------------------------------------------
// 8-lane batch kernel

constexpr std::size_t kWays = 8;
using Lanes = std::uint64_t __attribute__((vector_size(8 * kWays)));

std::size_t rate_blocks(std::size_t len) noexcept { return len / kRate + 1; }

// Hashes kWays inputs of `blocks` rate blocks each (rate_blocks(size) ==
// blocks for every one), lane j of the vector state carrying input j.  Each
// block is transposed into `words` so the absorb is 17 vector loads.
//
// Built for AVX-512 only, one zmm register per vector of lanes.  An AVX2
// build spills the 25-lane state out of the 16 ymm registers, and the
// baseline SSE2 lowering loses to the scalar permutation unless every way
// is filled, so without avx512f keccak256_batch stays scalar.
__attribute__((target("avx512f"))) void keccak256_x8_avx512(
    const std::span<const std::uint8_t>* in, std::size_t blocks,
    Digest* const* out) noexcept {
  Lanes s[25] = {};
  alignas(64) std::uint64_t words[kRateWords][kWays];
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::size_t j = 0; j < kWays; ++j) {
      const std::uint8_t* src = in[j].data() + b * kRate;
      std::uint8_t last[kRate];
      if (b + 1 == blocks) {
        // Keccak (pre-NIST) multi-rate padding: 0x01 ... 0x80.
        const std::size_t rem = in[j].size() - b * kRate;
        if (rem != 0) std::memcpy(last, src, rem);
        std::memset(last + rem, 0, kRate - rem);
        last[rem] = 0x01;
        last[kRate - 1] |= 0x80;
        src = last;
      }
      for (std::size_t w = 0; w < kRateWords; ++w)
        std::memcpy(&words[w][j], src + 8 * w, 8);  // little-endian host
    }
    for (std::size_t w = 0; w < kRateWords; ++w) {
      Lanes v;
      std::memcpy(&v, words[w], sizeof(v));
      s[w] ^= v;
    }
    keccak_f1600(s);
  }
  for (std::size_t j = 0; j < kWays; ++j)
    for (std::size_t w = 0; w < 4; ++w) {
      const std::uint64_t lane = s[w][j];
      std::memcpy(out[j]->data() + 8 * w, &lane, 8);
    }
}

// Groups smaller than this hash one by one: padding the rest of the eight
// ways costs more than the scalar permutations it would replace.
constexpr std::size_t kMinGroup = 3;

void batch_avx512(std::span<const std::span<const std::uint8_t>> inputs,
                  std::span<Digest> out) noexcept {
  // Counting sort of input indices by rate-block count, so each run of
  // equal counts can fill the eight ways.
  std::size_t max_blocks = 0;
  for (const auto& in : inputs)
    max_blocks = std::max(max_blocks, rate_blocks(in.size()));
  std::vector<std::size_t> start(max_blocks + 2, 0);
  for (const auto& in : inputs) ++start[rate_blocks(in.size()) + 1];
  for (std::size_t b = 1; b < start.size(); ++b) start[b] += start[b - 1];
  std::vector<std::size_t> order(inputs.size());
  {
    std::vector<std::size_t> fill(start.begin(), start.end() - 1);
    for (std::size_t i = 0; i < inputs.size(); ++i)
      order[fill[rate_blocks(inputs[i].size())]++] = i;
  }

  Digest spare;
  for (std::size_t blocks = 1; blocks <= max_blocks; ++blocks) {
    std::size_t i = start[blocks];
    const std::size_t end = start[blocks + 1];
    while (end - i >= kMinGroup) {
      const std::size_t take = std::min(kWays, end - i);
      std::span<const std::uint8_t> in[kWays];
      Digest* dst[kWays];
      for (std::size_t j = 0; j < kWays; ++j) {
        // Unused ways repeat the group's first input into a spare digest.
        const std::size_t k = order[i + (j < take ? j : 0)];
        in[j] = inputs[k];
        dst[j] = j < take ? &out[k] : &spare;
      }
      keccak256_x8_avx512(in, blocks, dst);
      i += take;
    }
    for (; i < end; ++i) out[order[i]] = keccak256(inputs[order[i]]);
  }
}

}  // namespace

void Keccak256::update(std::span<const std::uint8_t> data) noexcept {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t take =
        std::min(kRate - buffered_, data.size() - offset);
    std::memcpy(buffer_.data() + buffered_, data.data() + offset, take);
    buffered_ += take;
    offset += take;
    if (buffered_ == kRate) absorb_block();
  }
}

void Keccak256::absorb_block() noexcept {
  for (std::size_t i = 0; i < kRateWords; ++i) {
    std::uint64_t lane;
    std::memcpy(&lane, buffer_.data() + 8 * i, 8);  // little-endian host
    state_[i] ^= lane;
  }
  keccak_f1600(state_.data());
  buffered_ = 0;
}

Digest Keccak256::finalize() noexcept {
  // Keccak (pre-NIST) multi-rate padding: 0x01 ... 0x80.
  buffer_[buffered_] = 0x01;
  std::memset(buffer_.data() + buffered_ + 1, 0, kRate - buffered_ - 1);
  buffer_[kRate - 1] |= 0x80;
  buffered_ = kRate;
  absorb_block();

  Digest out;
  std::memcpy(out.data(), state_.data(), out.size());
  state_ = {};
  buffered_ = 0;
  return out;
}

Digest keccak256(std::span<const std::uint8_t> data) noexcept {
  Keccak256 h;
  h.update(data);
  return h.finalize();
}

Digest keccak256(std::string_view data) noexcept {
  return keccak256(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

void keccak256_batch(std::span<const std::span<const std::uint8_t>> inputs,
                     std::span<Digest> out) noexcept {
  BP_ASSERT_MSG(out.size() == inputs.size(), "one digest per input");
  static const bool kUseAvx512 = detail::avx512_batch_supported();
  if (kUseAvx512) {
    batch_avx512(inputs, out);
    return;
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) out[i] = keccak256(inputs[i]);
}

namespace detail {

bool avx512_batch_supported() noexcept {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}

void keccak256_batch_avx512(
    std::span<const std::span<const std::uint8_t>> inputs,
    std::span<Digest> out) noexcept {
  BP_ASSERT_MSG(avx512_batch_supported(), "the 8-lane kernel needs avx512f");
  BP_ASSERT_MSG(out.size() == inputs.size(), "one digest per input");
  batch_avx512(inputs, out);
}

}  // namespace detail

}  // namespace blockpilot::crypto
