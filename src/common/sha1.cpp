#include "common/sha1.hpp"

#include <cstring>

namespace dhtidx {

namespace {

constexpr std::uint32_t rotl(std::uint32_t value, unsigned bits) {
  return (value << bits) | (value >> (32u - bits));
}

}  // namespace

Sha1::Sha1() : state_{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u} {}

void Sha1::update(const void* data, std::size_t len) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bytes_ += len;
  while (len > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    len -= take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
}

Sha1Digest Sha1::finish() {
  const std::uint64_t bit_length = total_bytes_ * 8;
  // 0x80, then zeros up to 56 bytes into a block: at most 64 bytes of
  // padding, absorbed in one update.
  static constexpr std::array<std::uint8_t, 64> kPadding = {0x80};
  const std::size_t pad = buffered_ < 56 ? 56 - buffered_ : 120 - buffered_;
  update(kPadding.data(), pad);
  std::array<std::uint8_t, 8> length_be;
  for (int i = 0; i < 8; ++i) {
    length_be[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  update(length_be.data(), length_be.size());

  Sha1Digest digest;
  for (std::size_t i = 0; i < 5; ++i) {
    digest[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha1Digest Sha1::hash(std::string_view text) {
  Sha1 hasher;
  hasher.update(text);
  return hasher.finish();
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int t = 0; t < 16; ++t) {
    w[t] = (static_cast<std::uint32_t>(block[t * 4]) << 24) |
           (static_cast<std::uint32_t>(block[t * 4 + 1]) << 16) |
           (static_cast<std::uint32_t>(block[t * 4 + 2]) << 8) |
           static_cast<std::uint32_t>(block[t * 4 + 3]);
  }
  for (int t = 16; t < 80; ++t) {
    w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
  }

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];
  std::uint32_t e = state_[4];

  for (int t = 0; t < 80; ++t) {
    std::uint32_t f;
    std::uint32_t k;
    if (t < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (t < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (t < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t temp = rotl(a, 5) + f + e + k + w[t];
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = temp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

}  // namespace dhtidx
