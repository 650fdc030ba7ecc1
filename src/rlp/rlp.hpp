// Recursive Length Prefix (RLP) serialization, Ethereum's canonical wire
// and trie-node encoding.
//
// Encoding rules (yellow paper, appendix B):
//   * single byte < 0x80 encodes itself;
//   * a string of 0-55 bytes: 0x80+len prefix;
//   * longer strings: 0xb7+len-of-len prefix, then big-endian length;
//   * a list whose payload is 0-55 bytes: 0xc0+len prefix;
//   * longer lists: 0xf7+len-of-len prefix, then big-endian length.
// Integers are encoded as minimal big-endian strings (zero = empty string).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "types/address.hpp"
#include "types/u256.hpp"

namespace blockpilot::rlp {

using Bytes = std::vector<std::uint8_t>;

/// Streaming encoder.  Items appended at the top level concatenate; use
/// begin_list()/end_list() to nest.
class Encoder {
 public:
  Encoder& add(std::span<const std::uint8_t> str);
  Encoder& add(std::string_view str);
  Encoder& add(std::uint64_t value);        // minimal big-endian integer
  Encoder& add(const U256& value);          // minimal big-endian integer
  Encoder& add(const Address& addr);        // 20-byte string
  Encoder& add(const Hash256& hash);        // 32-byte string

  /// Appends a pre-encoded RLP item verbatim (for nested structures whose
  /// encoding was computed elsewhere, e.g. trie child references).
  Encoder& add_raw(std::span<const std::uint8_t> encoded);

  /// Opens a list; every item added until the matching end_list() belongs to
  /// it.  Lists may nest arbitrarily.
  Encoder& begin_list();
  Encoder& end_list();

  /// Finishes encoding and returns the buffer.  All lists must be closed.
  Bytes take();

 private:
  void append_string(std::span<const std::uint8_t> str);
  Bytes& out() { return stack_.empty() ? buffer_ : stack_.back(); }

  Bytes buffer_;
  std::vector<Bytes> stack_;  // one pending payload per open list
};

/// Building blocks for writers that size a list's payload up front and
/// encode straight into their own buffer (the trie's per-level arena).
/// header_size: bytes of the header of a string or list with a `len`-byte
/// payload.  append_string_header: that header for a string, never the
/// single-byte form.  string_size / append_string: a whole string item.
std::size_t header_size(std::size_t len);
void append_string_header(Bytes& out, std::size_t len);
void append_list_header(Bytes& out, std::size_t len);
std::size_t string_size(std::span<const std::uint8_t> str);
void append_string(Bytes& out, std::span<const std::uint8_t> str);

/// Encodes a single byte-string item.
Bytes encode(std::span<const std::uint8_t> str);
Bytes encode(std::uint64_t value);
Bytes encode(const U256& value);

/// A decoded RLP item: either a byte string or a list of items.
struct Item {
  bool is_list = false;
  Bytes str;                // valid when !is_list
  std::vector<Item> list;   // valid when is_list

  std::uint64_t as_u64() const;
  U256 as_u256() const;
  Address as_address() const;
  Hash256 as_hash() const;
};

/// Parses exactly one item spanning the whole input; asserts on malformed
/// or trailing data.
Item decode(std::span<const std::uint8_t> data);

/// Re-serializes a decoded item to its canonical encoding
/// (encode_item(decode(x)) == x for any valid x).
Bytes encode_item(const Item& item);

}  // namespace blockpilot::rlp
