#include "ws/sha1.h"

#include <algorithm>
#include <cstring>

namespace bnm::ws {

namespace {
constexpr std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

/// Streaming state: whole 64-byte blocks are compressed straight from the
/// input, only a partial block is buffered, so hashing allocates nothing.
class Sha1 {
 public:
  void update(std::string_view data) {
    const auto* p = reinterpret_cast<const unsigned char*>(data.data());
    std::size_t n = data.size();
    total_ += n;
    if (fill_ != 0) {
      const std::size_t take = std::min(n, sizeof block_ - fill_);
      std::memcpy(block_ + fill_, p, take);
      fill_ += take;
      p += take;
      n -= take;
      if (fill_ < sizeof block_) return;
      compress(block_);
      fill_ = 0;
    }
    for (; n >= sizeof block_; p += sizeof block_, n -= sizeof block_) {
      compress(p);
    }
    std::memcpy(block_, p, n);
    fill_ = n;
  }

  std::array<std::uint8_t, 20> finish() {
    // Pad: 0x80, zeros to 56 mod 64, then the 64-bit bit length.
    const std::uint64_t bit_len = total_ * 8;
    unsigned char tail[2 * 64] = {};
    std::memcpy(tail, block_, fill_);
    tail[fill_] = 0x80;
    const std::size_t len = fill_ < 56 ? 64 : 128;
    for (int i = 0; i < 8; ++i) {
      tail[len - 1 - static_cast<std::size_t>(i)] =
          static_cast<unsigned char>((bit_len >> (8 * i)) & 0xff);
    }
    compress(tail);
    if (len == 128) compress(tail + 64);

    std::array<std::uint8_t, 20> out;
    for (int i = 0; i < 5; ++i) {
      out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
      out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
      out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
      out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
    }
    return out;
  }

 private:
  void compress(const unsigned char* chunk) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(chunk[4 * i]) << 24) |
             (static_cast<std::uint32_t>(chunk[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(chunk[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(chunk[4 * i + 3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    std::uint32_t a = h_[0], b = h_[1], c = h_[2], d = h_[3], e = h_[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5A827999;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDC;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6;
      }
      const std::uint32_t temp = rotl(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = temp;
    }
    h_[0] += a;
    h_[1] += b;
    h_[2] += c;
    h_[3] += d;
    h_[4] += e;
  }

  std::uint32_t h_[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476,
                         0xC3D2E1F0};
  unsigned char block_[64] = {};
  std::size_t fill_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace

std::array<std::uint8_t, 20> sha1(std::string_view data) {
  return sha1(data, {});
}

std::array<std::uint8_t, 20> sha1(std::string_view first,
                                  std::string_view second) {
  Sha1 h;
  h.update(first);
  h.update(second);
  return h.finish();
}

std::string sha1_hex(const std::string& data) {
  static const char* hex = "0123456789abcdef";
  const auto digest = sha1(data);
  std::string out;
  out.reserve(40);
  for (auto b : digest) {
    out.push_back(hex[b >> 4]);
    out.push_back(hex[b & 0xf]);
  }
  return out;
}

}  // namespace bnm::ws
