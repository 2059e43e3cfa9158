#include <gtest/gtest.h>

#include <sstream>

#include "net/capture.h"
#include "net/pcap_reader.h"
#include "net/pcap_writer.h"
#include "sim/simulation.h"

namespace bnm::net {
namespace {

Packet sample_tcp() {
  Packet p;
  p.id = 7;
  p.protocol = Protocol::kTcp;
  p.src = {IpAddress{10, 0, 0, 1}, 49200};
  p.dst = {IpAddress{10, 0, 0, 2}, 80};
  p.flags.ack = true;
  p.flags.psh = true;
  p.seq = 123456;
  p.ack = 654321;
  p.payload = to_bytes("GET / HTTP/1.1\r\n\r\n");
  return p;
}

Packet sample_udp() {
  Packet p;
  p.protocol = Protocol::kUdp;
  p.src = {IpAddress{10, 0, 0, 1}, 50001};
  p.dst = {IpAddress{10, 0, 0, 2}, 9001};
  p.payload = to_bytes("probe");
  return p;
}

TEST(PcapReader, ParseFrameRoundTripsTcp) {
  const Packet original = sample_tcp();
  const auto parsed =
      PcapReader::parse_frame(PcapWriter::synthesize_frame(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->protocol, Protocol::kTcp);
  EXPECT_EQ(parsed->src, original.src);
  EXPECT_EQ(parsed->dst, original.dst);
  EXPECT_EQ(parsed->seq, original.seq);
  EXPECT_EQ(parsed->ack, original.ack);
  EXPECT_EQ(parsed->flags, original.flags);
  EXPECT_EQ(parsed->payload, original.payload);
}

TEST(PcapReader, ParseFrameRoundTripsUdp) {
  const Packet original = sample_udp();
  const auto parsed =
      PcapReader::parse_frame(PcapWriter::synthesize_frame(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->protocol, Protocol::kUdp);
  EXPECT_EQ(parsed->src, original.src);
  EXPECT_EQ(parsed->dst, original.dst);
  EXPECT_EQ(to_string(parsed->payload), "probe");
}

TEST(PcapReader, ParseFrameRejectsGarbage) {
  EXPECT_FALSE(PcapReader::parse_frame({}).has_value());
  EXPECT_FALSE(PcapReader::parse_frame(Payload{std::string{"too short"}}).has_value());
  std::vector<std::uint8_t> frame = PcapWriter::synthesize_frame(sample_tcp());
  frame[0] = 0x65;  // IPv6-ish version nibble
  EXPECT_FALSE(PcapReader::parse_frame(frame).has_value());
}

TEST(PcapReader, StreamRoundTripPreservesTimestampsAndOrder) {
  sim::Simulation sim{1};
  PacketCapture cap{sim};
  sim.scheduler().schedule_after(sim::Duration::millis(5), [&] {
    cap.record(CaptureDirection::kOutbound, sample_tcp());
  });
  sim.scheduler().schedule_after(sim::Duration::millis(55), [&] {
    cap.record(CaptureDirection::kInbound, sample_udp());
  });
  sim.scheduler().run();

  std::stringstream buf;
  PcapWriter::write(cap, buf);
  const auto result = PcapReader::read(buf);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].packet.protocol, Protocol::kTcp);
  EXPECT_EQ(result.records[1].packet.protocol, Protocol::kUdp);
  // Microsecond timestamp fidelity.
  EXPECT_EQ(result.records[0].timestamp.ns_since_epoch(), 5'000'000);
  EXPECT_EQ(result.records[1].timestamp.ns_since_epoch(), 55'000'000);
}

TEST(PcapReader, RejectsBadMagic) {
  std::stringstream buf;
  buf << "not a pcap file at all";
  const auto result = PcapReader::read(buf);
  EXPECT_EQ(result.error, PcapReader::Error::kBadMagic);
}

TEST(PcapReader, DetectsTruncation) {
  sim::Simulation sim{2};
  PacketCapture cap{sim};
  cap.record(CaptureDirection::kOutbound, sample_tcp());
  std::stringstream buf;
  PcapWriter::write(cap, buf);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 5);  // chop the last record
  std::stringstream cut{bytes};
  const auto result = PcapReader::read(cut);
  EXPECT_EQ(result.error, PcapReader::Error::kTruncated);
}

TEST(PcapReader, EmptyCaptureReadsCleanly) {
  sim::Simulation sim{3};
  PacketCapture cap{sim};
  std::stringstream buf;
  PcapWriter::write(cap, buf);
  const auto result = PcapReader::read(buf);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.link_type, PcapWriter::kLinkTypeRaw);
}

TEST(PcapReader, FileRoundTrip) {
  sim::Simulation sim{4};
  PacketCapture cap{sim};
  cap.record(CaptureDirection::kOutbound, sample_udp());
  const std::string path = ::testing::TempDir() + "/bnm_reader_test.pcap";
  PcapWriter::write_file(cap, path);
  const auto result = PcapReader::read_file(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.records.size(), 1u);
  std::remove(path.c_str());
}

/// A classic pcap header (snaplen as given) and one record header claiming
/// `incl_len` bytes, followed by `body` bytes.
std::string pcap_with_record(std::uint32_t snaplen, std::uint32_t incl_len,
                             std::size_t body) {
  std::string out;
  const auto u32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
  };
  u32(0xa1b2c3d4);
  u32(2 | (4u << 16));  // version 2.4
  u32(0);               // thiszone
  u32(0);               // sigfigs
  u32(snaplen);
  u32(PcapWriter::kLinkTypeRaw);
  u32(1);  // ts_sec
  u32(0);  // ts_usec
  u32(incl_len);
  u32(incl_len);  // orig_len
  out.append(body, '\x45');
  return out;
}

TEST(PcapReader, OversizeRecordIsATypedErrorNotAnAllocation) {
  // 41 bytes whose record claims 3.75 GiB: rejected before allocating.
  std::stringstream huge{pcap_with_record(65535, 0xF0000000u, 1)};
  ASSERT_EQ(huge.str().size(), 41u);
  const auto result = PcapReader::read(huge);
  EXPECT_EQ(result.error, PcapReader::Error::kOversize);
  EXPECT_TRUE(result.records.empty());
  EXPECT_STREQ(PcapReader::error_name(result.error), "oversize");

  // Above the header's own snaplen, though far below the hard cap.
  std::stringstream over_snap{pcap_with_record(64, 65, 65)};
  EXPECT_EQ(PcapReader::read(over_snap).error, PcapReader::Error::kOversize);
  // Above the hard cap, whatever the snaplen says.
  std::stringstream over_cap{
      pcap_with_record(0xFFFFFFFFu, PcapReader::kMaxRecordBytes + 1, 0)};
  EXPECT_EQ(PcapReader::read(over_cap).error, PcapReader::Error::kOversize);
  // At the snaplen the record is read (and here fails as a bad IP frame).
  std::stringstream at_snap{pcap_with_record(64, 64, 64)};
  EXPECT_EQ(PcapReader::read(at_snap).error, PcapReader::Error::kBadIpHeader);
}

TEST(PcapReader, MissingFileErrors) {
  const auto result = PcapReader::read_file("/nonexistent/nope.pcap");
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace bnm::net
