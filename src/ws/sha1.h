// Self-contained SHA-1 (FIPS 180-1), needed for the WebSocket opening
// handshake (Sec-WebSocket-Accept). Not for new cryptographic designs;
// RFC 6455 mandates it for this one purpose.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace bnm::ws {

/// 20-byte SHA-1 digest of `data`.
std::array<std::uint8_t, 20> sha1(std::string_view data);
/// Digest of `first` followed by `second`, without concatenating them.
std::array<std::uint8_t, 20> sha1(std::string_view first,
                                  std::string_view second);

/// Hex rendering of a digest (tests against known vectors).
std::string sha1_hex(const std::string& data);

}  // namespace bnm::ws
