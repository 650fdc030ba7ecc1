#include "rlp/rlp.hpp"

#include <cstring>

#include "support/assert.hpp"

namespace blockpilot::rlp {
namespace {

// Header for a `len`-byte payload: base + len up to 55 bytes, else
// base + 55 + n followed by len as n big-endian bytes.
void append_length(Bytes& out, std::size_t len, std::uint8_t base) {
  if (len <= 55) {
    out.push_back(static_cast<std::uint8_t>(base + len));
    return;
  }
  std::uint8_t be[8];
  int n = 0;
  for (std::size_t v = len; v != 0; v >>= 8) ++n;
  for (int i = 0; i < n; ++i)
    be[n - 1 - i] = static_cast<std::uint8_t>(len >> (8 * i));
  out.push_back(static_cast<std::uint8_t>(base + 55 + n));
  out.insert(out.end(), be, be + n);
}

Bytes minimal_be(const U256& value) {
  const auto full = value.to_be_bytes();
  std::size_t first = 0;
  while (first < 32 && full[first] == 0) ++first;
  return Bytes(full.begin() + static_cast<std::ptrdiff_t>(first), full.end());
}

}  // namespace

std::size_t header_size(std::size_t len) {
  std::size_t n = 1;
  if (len > 55)
    for (std::size_t v = len; v != 0; v >>= 8) ++n;
  return n;
}

void append_string_header(Bytes& out, std::size_t len) {
  append_length(out, len, 0x80);
}

void append_list_header(Bytes& out, std::size_t len) {
  append_length(out, len, 0xc0);
}

std::size_t string_size(std::span<const std::uint8_t> str) {
  if (str.size() == 1 && str[0] < 0x80) return 1;
  return header_size(str.size()) + str.size();
}

void append_string(Bytes& out, std::span<const std::uint8_t> str) {
  if (str.size() != 1 || str[0] >= 0x80)
    append_string_header(out, str.size());
  out.insert(out.end(), str.begin(), str.end());
}

void Encoder::append_string(std::span<const std::uint8_t> str) {
  rlp::append_string(out(), str);
}

Encoder& Encoder::add(std::span<const std::uint8_t> str) {
  append_string(str);
  return *this;
}

Encoder& Encoder::add(std::string_view str) {
  append_string(std::span(reinterpret_cast<const std::uint8_t*>(str.data()),
                          str.size()));
  return *this;
}

Encoder& Encoder::add(std::uint64_t value) { return add(U256{value}); }

Encoder& Encoder::add(const U256& value) {
  const Bytes be = minimal_be(value);
  append_string(std::span(be));
  return *this;
}

Encoder& Encoder::add(const Address& addr) {
  append_string(std::span(addr.bytes));
  return *this;
}

Encoder& Encoder::add(const Hash256& hash) {
  append_string(std::span(hash.bytes));
  return *this;
}

Encoder& Encoder::add_raw(std::span<const std::uint8_t> encoded) {
  Bytes& dst = out();
  dst.insert(dst.end(), encoded.begin(), encoded.end());
  return *this;
}

Encoder& Encoder::begin_list() {
  stack_.emplace_back();
  return *this;
}

Encoder& Encoder::end_list() {
  BP_ASSERT_MSG(!stack_.empty(), "end_list without begin_list");
  Bytes payload = std::move(stack_.back());
  stack_.pop_back();
  Bytes& dst = out();
  append_list_header(dst, payload.size());
  dst.insert(dst.end(), payload.begin(), payload.end());
  return *this;
}

Bytes Encoder::take() {
  BP_ASSERT_MSG(stack_.empty(), "take() with unclosed list");
  return std::move(buffer_);
}

Bytes encode(std::span<const std::uint8_t> str) {
  Encoder e;
  e.add(str);
  return e.take();
}

Bytes encode(std::uint64_t value) { return encode(U256{value}); }

Bytes encode(const U256& value) {
  Encoder e;
  e.add(value);
  return e.take();
}

namespace {

// Parses one item starting at data[pos]; advances pos past it.
Item parse(std::span<const std::uint8_t> data, std::size_t& pos) {
  BP_ASSERT_MSG(pos < data.size(), "truncated RLP");
  const std::uint8_t tag = data[pos];

  auto read_len = [&](std::size_t n_bytes) {
    BP_ASSERT_MSG(pos + n_bytes <= data.size(), "truncated RLP length");
    std::size_t len = 0;
    for (std::size_t i = 0; i < n_bytes; ++i) len = (len << 8) | data[pos++];
    return len;
  };
  auto read_str = [&](std::size_t len) {
    BP_ASSERT_MSG(pos + len <= data.size(), "truncated RLP string");
    Bytes s(data.begin() + static_cast<std::ptrdiff_t>(pos),
            data.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
    return s;
  };
  auto read_list = [&](std::size_t len) {
    BP_ASSERT_MSG(pos + len <= data.size(), "truncated RLP list");
    const std::size_t end = pos + len;
    Item item;
    item.is_list = true;
    while (pos < end) item.list.push_back(parse(data, pos));
    BP_ASSERT_MSG(pos == end, "RLP list payload overrun");
    return item;
  };

  if (tag < 0x80) {  // single byte
    ++pos;
    Item item;
    item.str.push_back(tag);
    return item;
  }
  if (tag <= 0xb7) {  // short string
    ++pos;
    Item item;
    item.str = read_str(tag - 0x80);
    return item;
  }
  if (tag <= 0xbf) {  // long string
    ++pos;
    const std::size_t len = read_len(tag - 0xb7);
    Item item;
    item.str = read_str(len);
    return item;
  }
  if (tag <= 0xf7) {  // short list
    ++pos;
    return read_list(tag - 0xc0);
  }
  ++pos;  // long list
  const std::size_t len = read_len(tag - 0xf7);
  return read_list(len);
}

}  // namespace

Item decode(std::span<const std::uint8_t> data) {
  std::size_t pos = 0;
  Item item = parse(data, pos);
  BP_ASSERT_MSG(pos == data.size(), "trailing bytes after RLP item");
  return item;
}

namespace {

void encode_item_into(Encoder& enc, const Item& item) {
  if (!item.is_list) {
    enc.add(std::span(item.str));
    return;
  }
  enc.begin_list();
  for (const Item& child : item.list) encode_item_into(enc, child);
  enc.end_list();
}

}  // namespace

Bytes encode_item(const Item& item) {
  Encoder enc;
  encode_item_into(enc, item);
  return enc.take();
}

std::uint64_t Item::as_u64() const {
  BP_ASSERT(!is_list);
  BP_ASSERT_MSG(str.size() <= 8, "integer wider than 64 bits");
  std::uint64_t v = 0;
  for (auto b : str) v = (v << 8) | b;
  return v;
}

U256 Item::as_u256() const {
  BP_ASSERT(!is_list);
  return U256::from_be_bytes(std::span(str));
}

Address Item::as_address() const {
  BP_ASSERT(!is_list);
  BP_ASSERT_MSG(str.size() == 20, "address item must be 20 bytes");
  Address a;
  std::memcpy(a.bytes.data(), str.data(), 20);
  return a;
}

Hash256 Item::as_hash() const {
  BP_ASSERT(!is_list);
  BP_ASSERT_MSG(str.size() == 32, "hash item must be 32 bytes");
  Hash256 h;
  std::memcpy(h.bytes.data(), str.data(), 32);
  return h;
}

}  // namespace blockpilot::rlp
