#include "ws/frame.h"

#include <cstring>
#include <utility>

namespace bnm::ws {

bool is_control(Opcode op) {
  return static_cast<std::uint8_t>(op) >= 0x8;
}

const char* opcode_name(Opcode op) {
  switch (op) {
    case Opcode::kContinuation: return "continuation";
    case Opcode::kText: return "text";
    case Opcode::kBinary: return "binary";
    case Opcode::kClose: return "close";
    case Opcode::kPing: return "ping";
    case Opcode::kPong: return "pong";
  }
  return "?";
}

namespace {

std::size_t frame_size(bool masked, std::size_t len) {
  const std::size_t length_bytes = len < 126 ? 0 : len <= 0xffff ? 2 : 8;
  return 2 + length_bytes + (masked ? 4 : 0) + len;
}

/// Write the frame_size(masked, len) wire bytes of one frame to `out`.
void write_frame(bool fin, Opcode opcode, bool masked,
                 std::uint32_t masking_key, const std::uint8_t* data,
                 std::size_t len, std::uint8_t* out) {
  *out++ = static_cast<std::uint8_t>((fin ? 0x80 : 0x00) |
                                     static_cast<std::uint8_t>(opcode));
  const std::uint8_t mask_bit = masked ? 0x80 : 0x00;
  if (len < 126) {
    *out++ = static_cast<std::uint8_t>(mask_bit | static_cast<std::uint8_t>(len));
  } else if (len <= 0xffff) {
    *out++ = static_cast<std::uint8_t>(mask_bit | 126);
    *out++ = static_cast<std::uint8_t>((len >> 8) & 0xff);
    *out++ = static_cast<std::uint8_t>(len & 0xff);
  } else {
    *out++ = static_cast<std::uint8_t>(mask_bit | 127);
    for (int i = 7; i >= 0; --i) {
      *out++ = static_cast<std::uint8_t>(
          (static_cast<std::uint64_t>(len) >> (8 * i)) & 0xff);
    }
  }

  if (masked) {
    std::uint8_t key[4];
    for (int i = 0; i < 4; ++i) {
      key[i] = static_cast<std::uint8_t>((masking_key >> (8 * (3 - i))) & 0xff);
      *out++ = key[i];
    }
    for (std::size_t i = 0; i < len; ++i) *out++ = data[i] ^ key[i % 4];
  } else if (len != 0) {
    std::memcpy(out, data, len);
  }
}

}  // namespace

std::string Frame::encode() const {
  std::string out(frame_size(masked, payload.size()), '\0');
  write_frame(fin, opcode, masked, masking_key, payload.data(), payload.size(),
              reinterpret_cast<std::uint8_t*>(out.data()));
  return out;
}

net::Payload Frame::encode_payload() const {
  return encode_frame(fin, opcode, masked, masking_key, payload.data(),
                      payload.size());
}

net::Payload encode_frame(bool fin, Opcode opcode, bool masked,
                          std::uint32_t masking_key, const std::uint8_t* data,
                          std::size_t size) {
  std::uint8_t* out = nullptr;
  net::Payload p = net::Payload::uninitialized(frame_size(masked, size), out);
  write_frame(fin, opcode, masked, masking_key, data, size, out);
  return p;
}

std::vector<std::uint8_t> encode_close_payload(std::uint16_t code,
                                               const std::string& reason) {
  std::vector<std::uint8_t> out;
  out.reserve(2 + reason.size());
  out.push_back(static_cast<std::uint8_t>(code >> 8));
  out.push_back(static_cast<std::uint8_t>(code & 0xff));
  out.insert(out.end(), reason.begin(), reason.end());
  return out;
}

std::optional<std::uint16_t> decode_close_code(
    const std::vector<std::uint8_t>& payload) {
  if (payload.size() < 2) return std::nullopt;
  return static_cast<std::uint16_t>((payload[0] << 8) | payload[1]);
}

void FrameDecoder::feed(const std::string& bytes) {
  feed(reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
}

void FrameDecoder::feed(const net::Payload& bytes) {
  feed(bytes.data(), bytes.size());
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (failed()) return;
  if (buffer_.empty()) {
    // Nothing pending: decode whole frames in place, keep only the tail.
    while (const std::size_t used = decode_one(data, size)) {
      data += used;
      size -= used;
    }
    if (!failed()) buffer_.insert(buffer_.end(), data, data + size);
    return;
  }
  buffer_.insert(buffer_.end(), data, data + size);
  std::size_t offset = 0;
  while (const std::size_t used =
             decode_one(buffer_.data() + offset, buffer_.size() - offset)) {
    offset += used;
  }
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(offset));
}

std::size_t FrameDecoder::decode_one(const std::uint8_t* data,
                                    std::size_t size) {
  if (failed() || size < 2) return 0;

  const std::uint8_t b0 = data[0];
  const std::uint8_t b1 = data[1];
  if ((b0 & 0x70) != 0) {  // RSV1-3 must be zero (no extensions negotiated)
    error_ = Error::kReservedBits;
    return 0;
  }
  const auto opcode = static_cast<Opcode>(b0 & 0x0f);
  switch (opcode) {
    case Opcode::kContinuation:
    case Opcode::kText:
    case Opcode::kBinary:
    case Opcode::kClose:
    case Opcode::kPing:
    case Opcode::kPong:
      break;
    default:
      error_ = Error::kBadOpcode;
      return 0;
  }
  const bool fin = (b0 & 0x80) != 0;
  const bool masked = (b1 & 0x80) != 0;

  std::size_t header = 2;
  std::uint64_t len = b1 & 0x7f;
  if (len == 126) {
    if (size < 4) return 0;
    len = (static_cast<std::uint64_t>(data[2]) << 8) | data[3];
    header = 4;
  } else if (len == 127) {
    if (size < 10) return 0;
    len = 0;
    for (int i = 0; i < 8; ++i) len = (len << 8) | data[2 + i];
    header = 10;
  }

  if (is_control(opcode)) {
    if (len > 125) {
      error_ = Error::kControlTooLong;
      return 0;
    }
    if (!fin) {
      error_ = Error::kControlFragmented;
      return 0;
    }
  }

  std::uint8_t key[4] = {0, 0, 0, 0};
  if (masked) {
    if (size < header + 4) return 0;
    for (int i = 0; i < 4; ++i) key[i] = data[header + static_cast<std::size_t>(i)];
    header += 4;
  }

  if (size < header + len) return 0;

  Frame f;
  f.fin = fin;
  f.opcode = opcode;
  f.masked = masked;
  f.masking_key = (std::uint32_t{key[0]} << 24) | (std::uint32_t{key[1]} << 16) |
                  (std::uint32_t{key[2]} << 8) | key[3];
  f.payload.reserve(static_cast<std::size_t>(len));
  for (std::uint64_t i = 0; i < len; ++i) {
    std::uint8_t byte = data[header + static_cast<std::size_t>(i)];
    if (masked) byte ^= key[i % 4];
    f.payload.push_back(byte);
  }
  ready_.push_back(std::move(f));
  return header + static_cast<std::size_t>(len);
}

std::optional<Frame> FrameDecoder::take() {
  if (ready_.empty()) return std::nullopt;
  Frame f = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return f;
}

std::optional<MessageAssembler::Message> MessageAssembler::add(Frame frame) {
  if (frame.opcode == Opcode::kText || frame.opcode == Opcode::kBinary) {
    partial_ = Message{frame.opcode, std::move(frame.payload)};
    in_progress_ = !frame.fin;
    if (frame.fin) return std::move(partial_);
    return std::nullopt;
  }
  if (frame.opcode == Opcode::kContinuation && in_progress_) {
    partial_.data.insert(partial_.data.end(), frame.payload.begin(),
                         frame.payload.end());
    if (frame.fin) {
      in_progress_ = false;
      return std::move(partial_);
    }
  }
  return std::nullopt;
}

}  // namespace bnm::ws
