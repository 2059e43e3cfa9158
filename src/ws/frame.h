// RFC 6455 WebSocket frame codec: encoder and incremental decoder, with
// client-side masking, 7/16/64-bit payload lengths, and control frames.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/payload.h"
#include "sim/arena.h"

namespace bnm::ws {

enum class Opcode : std::uint8_t {
  kContinuation = 0x0,
  kText = 0x1,
  kBinary = 0x2,
  kClose = 0x8,
  kPing = 0x9,
  kPong = 0xA,
};

bool is_control(Opcode op);
const char* opcode_name(Opcode op);

struct Frame {
  bool fin = true;
  Opcode opcode = Opcode::kBinary;
  bool masked = false;
  std::uint32_t masking_key = 0;
  std::vector<std::uint8_t> payload;

  /// Serialize to wire bytes. If `masked`, the payload is XOR-masked with
  /// `masking_key` on the wire (the struct's payload stays clear-text).
  std::string encode() const;
  /// The same bytes, written straight into a payload buffer for sending.
  net::Payload encode_payload() const;
};

/// Encode one frame carrying `size` bytes at `data` straight into a new
/// payload buffer (masked with `masking_key` when `masked`): what
/// Frame::encode_payload() produces, without a Frame holding a copy.
net::Payload encode_frame(bool fin, Opcode opcode, bool masked,
                          std::uint32_t masking_key, const std::uint8_t* data,
                          std::size_t size);

/// Close frame payload helpers (2-byte big-endian status code + reason).
std::vector<std::uint8_t> encode_close_payload(std::uint16_t code,
                                               const std::string& reason);
std::optional<std::uint16_t> decode_close_code(
    const std::vector<std::uint8_t>& payload);

/// Incremental frame decoder. Feed wire bytes; complete frames (with
/// unmasked payloads) pop out in order.
class FrameDecoder {
 public:
  enum class Error { kNone, kReservedBits, kBadOpcode, kControlTooLong,
                     kControlFragmented };

  void feed(const std::string& bytes);
  /// Same, straight from a payload view (no intermediate string copy).
  void feed(const net::Payload& bytes);
  void feed(const std::uint8_t* data, std::size_t size);
  /// Next complete frame, if any.
  std::optional<Frame> take();

  bool failed() const { return error_ != Error::kNone; }
  Error error() const { return error_; }

 private:
  /// Decode one frame from the front of [data, data + size) into ready_.
  /// Returns the bytes it took: 0 when the frame is incomplete (or the
  /// stream failed).
  std::size_t decode_one(const std::uint8_t* data, std::size_t size);

  /// Bytes of an incomplete frame; whole frames are decoded straight from
  /// the fed view. The decoder lives inside its connection's arena epoch,
  /// so both queues are arena-backed.
  std::vector<std::uint8_t, sim::ArenaAllocator<std::uint8_t>> buffer_;
  std::vector<Frame, sim::ArenaAllocator<Frame>> ready_;
  Error error_ = Error::kNone;
};

/// Reassembles data frames (handling continuation) into complete messages.
class MessageAssembler {
 public:
  struct Message {
    Opcode type = Opcode::kBinary;  ///< kText or kBinary
    std::vector<std::uint8_t> data;
  };

  /// Feed one *data* frame (text/binary/continuation). Returns a complete
  /// message when `frame.fin` closes it (pass an rvalue to hand the
  /// payload over without a copy).
  std::optional<Message> add(Frame frame);

 private:
  bool in_progress_ = false;
  Message partial_;
};

}  // namespace bnm::ws
