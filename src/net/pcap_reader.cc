#include "net/pcap_reader.h"

#include <fstream>

#include "net/pcap_writer.h"

namespace bnm::net {

namespace {

bool read_u32le(std::istream& in, std::uint32_t& v) {
  unsigned char b[4];
  if (!in.read(reinterpret_cast<char*>(b), 4)) return false;
  v = static_cast<std::uint32_t>(b[0]) | (static_cast<std::uint32_t>(b[1]) << 8) |
      (static_cast<std::uint32_t>(b[2]) << 16) |
      (static_cast<std::uint32_t>(b[3]) << 24);
  return true;
}

std::uint16_t u16be(const unsigned char* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t u32be(const unsigned char* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

}  // namespace

std::optional<Packet> PcapReader::parse_frame(const Payload& frame) {
  if (frame.size() < kIpHeaderBytes) return std::nullopt;
  const unsigned char* p = frame.data();
  if ((p[0] >> 4) != 4) return std::nullopt;  // IPv4 only
  const std::size_t ihl = static_cast<std::size_t>(p[0] & 0x0f) * 4;
  if (ihl < kIpHeaderBytes || frame.size() < ihl) return std::nullopt;
  const std::size_t total = u16be(p + 2);
  if (total < ihl || total > frame.size()) return std::nullopt;

  Packet pkt;
  pkt.id = u16be(p + 4);
  pkt.src.ip = IpAddress{u32be(p + 12)};
  pkt.dst.ip = IpAddress{u32be(p + 16)};

  const unsigned char proto = p[9];
  const unsigned char* t = p + ihl;
  const std::size_t remaining = total - ihl;

  if (proto == 6) {
    pkt.protocol = Protocol::kTcp;
    if (remaining < kTcpHeaderBytes) return std::nullopt;
    pkt.src.port = u16be(t);
    pkt.dst.port = u16be(t + 2);
    pkt.seq = u32be(t + 4);
    pkt.ack = u32be(t + 8);
    const std::size_t data_offset = static_cast<std::size_t>(t[12] >> 4) * 4;
    if (data_offset < kTcpHeaderBytes || remaining < data_offset) {
      return std::nullopt;
    }
    const unsigned char flags = t[13];
    pkt.flags.fin = flags & 0x01;
    pkt.flags.syn = flags & 0x02;
    pkt.flags.rst = flags & 0x04;
    pkt.flags.psh = flags & 0x08;
    pkt.flags.ack = flags & 0x10;
    pkt.window = u16be(t + 14);
    // Walk the option bytes for the RFC 7323 timestamp (kind 8, len 10).
    for (std::size_t o = kTcpHeaderBytes; o < data_offset;) {
      const unsigned char kind = t[o];
      if (kind == 0) break;  // end of option list
      if (kind == 1) {       // NOP pad
        ++o;
        continue;
      }
      if (o + 1 >= data_offset) break;
      const std::size_t len = t[o + 1];
      if (len < 2 || o + len > data_offset) break;  // malformed: stop
      if (kind == 8 && len == 10) {
        pkt.ts.present = true;
        pkt.ts.tsval = u32be(t + o + 2);
        pkt.ts.tsecr = u32be(t + o + 6);
      }
      o += len;
    }
    pkt.payload = frame.subview(ihl + data_offset, remaining - data_offset);
  } else if (proto == 17) {
    pkt.protocol = Protocol::kUdp;
    if (remaining < kUdpHeaderBytes) return std::nullopt;
    pkt.src.port = u16be(t);
    pkt.dst.port = u16be(t + 2);
    const std::size_t udp_len = u16be(t + 4);
    if (udp_len < kUdpHeaderBytes || udp_len > remaining) return std::nullopt;
    pkt.payload = frame.subview(ihl + kUdpHeaderBytes, udp_len - kUdpHeaderBytes);
  } else {
    return std::nullopt;  // other protocols not modelled
  }
  return pkt;
}

const char* PcapReader::error_name(Error e) {
  switch (e) {
    case Error::kNone: return "none";
    case Error::kBadMagic: return "bad_magic";
    case Error::kUnsupportedLinkType: return "unsupported_link_type";
    case Error::kTruncated: return "truncated";
    case Error::kBadIpHeader: return "bad_ip_header";
    case Error::kOversize: return "oversize";
  }
  return "?";
}

PcapReader::Result PcapReader::read(std::istream& in) {
  Result result;

  std::uint32_t magic = 0;
  if (!read_u32le(in, magic)) {
    result.error = Error::kTruncated;
    return result;
  }
  if (magic != 0xa1b2c3d4) {
    // Big-endian or nanosecond variants are not produced by PcapWriter.
    result.error = Error::kBadMagic;
    return result;
  }
  std::uint32_t v_zone, v_sigfigs, snaplen;
  std::uint32_t version = 0;
  if (!read_u32le(in, version) || !read_u32le(in, v_zone) ||
      !read_u32le(in, v_sigfigs) || !read_u32le(in, snaplen) ||
      !read_u32le(in, result.link_type)) {
    result.error = Error::kTruncated;
    return result;
  }
  if (result.link_type != PcapWriter::kLinkTypeRaw) {
    result.error = Error::kUnsupportedLinkType;
    return result;
  }

  for (;;) {
    std::uint32_t ts_sec, ts_usec, incl_len, orig_len = 0;
    if (!read_u32le(in, ts_sec)) break;  // clean EOF
    if (!read_u32le(in, ts_usec) || !read_u32le(in, incl_len) ||
        !read_u32le(in, orig_len)) {
      result.error = Error::kTruncated;
      return result;
    }
    if (incl_len > snaplen || incl_len > kMaxRecordBytes) {
      result.error = Error::kOversize;
      return result;
    }
    std::vector<std::uint8_t> bytes(incl_len);
    if (!in.read(reinterpret_cast<char*>(bytes.data()),
                 static_cast<std::streamsize>(incl_len))) {
      result.error = Error::kTruncated;
      return result;
    }
    (void)orig_len;
    // One buffer per frame; the parsed packet's payload aliases it.
    const Payload frame{std::move(bytes)};
    const auto packet = parse_frame(frame);
    if (!packet) {
      result.error = Error::kBadIpHeader;
      return result;
    }
    PcapRecord rec;
    rec.timestamp = sim::TimePoint::from_ns(
        static_cast<std::int64_t>(ts_sec) * 1'000'000'000 +
        static_cast<std::int64_t>(ts_usec) * 1'000);
    rec.packet = *packet;
    result.records.push_back(std::move(rec));
  }
  return result;
}

PcapReader::Result PcapReader::read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    Result r;
    r.error = Error::kTruncated;
    return r;
  }
  return read(in);
}

}  // namespace bnm::net
