#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "net/capture.h"
#include "net/pcap_writer.h"
#include "sim/simulation.h"

namespace bnm::net {
namespace {

Packet tcp_packet(Endpoint src, Endpoint dst, TcpFlags flags,
                  const std::string& payload = "") {
  Packet p;
  p.protocol = Protocol::kTcp;
  p.src = src;
  p.dst = dst;
  p.flags = flags;
  p.payload = to_bytes(payload);
  return p;
}

const Endpoint kClient{IpAddress{10, 0, 0, 1}, 50000};
const Endpoint kServer{IpAddress{10, 0, 0, 2}, 80};

TEST(PacketCapture, RecordsBothDirectionsWithTimestamps) {
  sim::Simulation sim{1};
  PacketCapture cap{sim};
  sim.scheduler().schedule_after(sim::Duration::millis(5), [&] {
    cap.record(CaptureDirection::kOutbound,
               tcp_packet(kClient, kServer, {.ack = true, .psh = true}, "req"));
  });
  sim.scheduler().schedule_after(sim::Duration::millis(55), [&] {
    cap.record(CaptureDirection::kInbound,
               tcp_packet(kServer, kClient, {.ack = true, .psh = true}, "resp"));
  });
  sim.scheduler().run();
  ASSERT_EQ(cap.size(), 2u);
  EXPECT_EQ(cap.direction(0), CaptureDirection::kOutbound);
  EXPECT_EQ(cap.direction(1), CaptureDirection::kInbound);
  EXPECT_EQ((cap.timestamp(1) - cap.timestamp(0)).ms_f(), 50.0);
}

TEST(PacketCapture, DisabledCaptureDropsRecords) {
  sim::Simulation sim{2};
  PacketCapture::Config cfg;
  cfg.enabled = false;
  PacketCapture cap{sim, cfg};
  cap.record(CaptureDirection::kInbound, tcp_packet(kServer, kClient, {}));
  EXPECT_EQ(cap.size(), 0u);
}

TEST(PacketCapture, TimestampJitterBoundedAndNonNegative) {
  sim::Simulation sim{3};
  PacketCapture::Config cfg;
  cfg.timestamp_jitter = sim::Duration::from_millis_f(0.3);
  PacketCapture cap{sim, cfg};
  for (int i = 0; i < 200; ++i) {
    cap.record(CaptureDirection::kOutbound, tcp_packet(kClient, kServer, {}));
  }
  for (std::size_t i = 0; i < cap.size(); ++i) {
    const auto err = cap.timestamp(i) - cap.true_time(i);
    EXPECT_GE(err, sim::Duration::zero());
    EXPECT_LT(err, sim::Duration::from_millis_f(0.3));
  }
}

TEST(PacketCapture, FiltersSelectExpectedRecords) {
  sim::Simulation sim{4};
  PacketCapture cap{sim};
  cap.record(CaptureDirection::kOutbound,
             tcp_packet(kClient, kServer, {.syn = true}));
  cap.record(CaptureDirection::kOutbound,
             tcp_packet(kClient, kServer, {.ack = true, .psh = true}, "req"));
  cap.record(CaptureDirection::kInbound,
             tcp_packet(kServer, kClient, {.ack = true, .psh = true}, "resp"));
  cap.record(CaptureDirection::kInbound,
             tcp_packet(kServer, kClient, {.ack = true}));  // pure ack

  EXPECT_EQ(cap.select(PacketCapture::outbound_data()).size(), 1u);
  EXPECT_EQ(cap.select(PacketCapture::inbound_data()).size(), 1u);
  EXPECT_EQ(cap.select(PacketCapture::tcp_syn()).size(), 1u);
  EXPECT_EQ(cap.select(PacketCapture::to_port(80)).size(), 2u);
  EXPECT_EQ(cap.select(PacketCapture::between(kClient, kServer)).size(), 4u);

  const auto first = cap.first(PacketCapture::inbound_data());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(to_string(first->packet.payload), "resp");
  const auto last = cap.last(PacketCapture::to_port(80));
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(last->packet.carries_data());
}

TEST(PacketCapture, DistinctConnectionsDeduplicatesRetransmits) {
  sim::Simulation sim{5};
  PacketCapture cap{sim};
  Packet syn = tcp_packet(kClient, kServer, {.syn = true});
  syn.seq = 1000;
  cap.record(CaptureDirection::kOutbound, syn);
  cap.record(CaptureDirection::kOutbound, syn);  // retransmission
  Packet syn2 = syn;
  syn2.src.port = 50001;
  cap.record(CaptureDirection::kOutbound, syn2);
  // SYN-ACK must not count as a new connection.
  Packet synack = tcp_packet(kServer, kClient, {.syn = true, .ack = true});
  cap.record(CaptureDirection::kInbound, synack);
  EXPECT_EQ(cap.distinct_connections(), 2u);
}

TEST(PacketCapture, FirstIndexAtOrAfterMatchesLinearScan) {
  // The binary search must agree with the obvious linear scan everywhere:
  // on an empty capture, before the first record, after the last, inside
  // runs of equal true_time and on every record boundary.
  const auto linear = [](const PacketCapture& cap, sim::TimePoint t) {
    std::size_t i = 0;
    while (i < cap.size() && cap.true_time(i) < t) ++i;
    return i;
  };
  const auto at_ms = [](std::int64_t ms) {
    return sim::TimePoint::epoch() + sim::Duration::millis(ms);
  };

  sim::Simulation sim{5};
  PacketCapture cap{sim};
  for (const sim::TimePoint t : {sim::TimePoint::epoch(), at_ms(3)}) {
    EXPECT_EQ(cap.first_index_at_or_after(t), 0u);
    EXPECT_EQ(cap.first_index_at_or_after(t), linear(cap, t));
  }

  const std::vector<std::int64_t> times_ms = {2, 2, 2, 5, 7, 7, 11, 11,
                                              11, 11, 20};
  for (const std::int64_t ms : times_ms) {
    sim.scheduler().post_at(at_ms(ms), [&cap] {
      cap.record(CaptureDirection::kOutbound,
                 tcp_packet(kClient, kServer, {.ack = true}));
    });
  }
  sim.scheduler().run();
  ASSERT_EQ(cap.size(), times_ms.size());

  std::vector<sim::TimePoint> queries = {sim::TimePoint::epoch(), at_ms(1),
                                         at_ms(21), at_ms(1000)};
  for (std::size_t i = 0; i < cap.size(); ++i) {
    const sim::TimePoint t = cap.true_time(i);
    queries.insert(queries.end(), {t - sim::Duration::nanos(1), t,
                                   t + sim::Duration::nanos(1)});
  }
  for (const sim::TimePoint t : queries) {
    EXPECT_EQ(cap.first_index_at_or_after(t), linear(cap, t))
        << "at " << t.ns_since_epoch() << " ns";
  }
  // Spot checks pin the semantics, not just the agreement.
  EXPECT_EQ(cap.first_index_at_or_after(at_ms(2)), 0u);
  EXPECT_EQ(cap.first_index_at_or_after(at_ms(11)), 6u);
  EXPECT_EQ(cap.first_index_at_or_after(at_ms(20)), 10u);
  EXPECT_EQ(cap.first_index_at_or_after(at_ms(21)), cap.size());
}

TEST(PacketCapture, ClearEmpties) {
  sim::Simulation sim{6};
  PacketCapture cap{sim};
  cap.record(CaptureDirection::kOutbound, tcp_packet(kClient, kServer, {}));
  cap.clear();
  EXPECT_EQ(cap.size(), 0u);
}

// ------------------------------------------------------------------- pcap

TEST(PcapWriter, InternetChecksumKnownVector) {
  // RFC 1071 example bytes.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(PcapWriter::internet_checksum(data, sizeof data), 0x220d);
}

TEST(PcapWriter, SynthesizedTcpFrameFields) {
  Packet p = tcp_packet(kClient, kServer, {.syn = true}, "");
  p.seq = 0x01020304;
  const std::vector<std::uint8_t> f = PcapWriter::synthesize_frame(p);
  ASSERT_EQ(f.size(), kIpHeaderBytes + kTcpHeaderBytes);
  EXPECT_EQ(static_cast<unsigned char>(f[0]), 0x45);  // IPv4, IHL 5
  EXPECT_EQ(static_cast<unsigned char>(f[9]), 6);     // protocol TCP
  // Source/destination addresses in network order.
  EXPECT_EQ(static_cast<unsigned char>(f[12]), 10);
  EXPECT_EQ(static_cast<unsigned char>(f[15]), 1);
  EXPECT_EQ(static_cast<unsigned char>(f[19]), 2);
  // TCP ports.
  EXPECT_EQ((static_cast<unsigned char>(f[20]) << 8) |
                static_cast<unsigned char>(f[21]),
            50000);
  EXPECT_EQ((static_cast<unsigned char>(f[22]) << 8) |
                static_cast<unsigned char>(f[23]),
            80);
  // Sequence number.
  EXPECT_EQ(static_cast<unsigned char>(f[24]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(f[27]), 0x04);
  // SYN flag bit.
  EXPECT_EQ(static_cast<unsigned char>(f[33]) & 0x02, 0x02);
  // IPv4 header checksum verifies to zero.
  EXPECT_EQ(PcapWriter::internet_checksum(
                reinterpret_cast<const std::uint8_t*>(f.data()),
                kIpHeaderBytes),
            0);
}

TEST(PcapWriter, SynthesizedUdpFrame) {
  Packet p;
  p.protocol = Protocol::kUdp;
  p.src = {IpAddress{10, 0, 0, 1}, 1234};
  p.dst = {IpAddress{10, 0, 0, 2}, 9001};
  p.payload = to_bytes("ping");
  const std::vector<std::uint8_t> f = PcapWriter::synthesize_frame(p);
  ASSERT_EQ(f.size(), kIpHeaderBytes + kUdpHeaderBytes + 4);
  EXPECT_EQ(static_cast<unsigned char>(f[9]), 17);  // protocol UDP
  // UDP length field = header + payload.
  EXPECT_EQ((static_cast<unsigned char>(f[24]) << 8) |
                static_cast<unsigned char>(f[25]),
            12);
  EXPECT_EQ(std::string(f.begin() + kIpHeaderBytes + kUdpHeaderBytes, f.end()),
            "ping");
}

TEST(PcapWriter, StreamLayout) {
  sim::Simulation sim{7};
  PacketCapture cap{sim};
  sim.scheduler().schedule_after(sim::Duration::millis(1), [&] {
    cap.record(CaptureDirection::kOutbound,
               tcp_packet(kClient, kServer, {.ack = true, .psh = true}, "hi"));
  });
  sim.scheduler().run();

  std::ostringstream out;
  const std::size_t written = PcapWriter::write(cap, out);
  const std::string bytes = out.str();
  EXPECT_EQ(written, bytes.size());
  // Global header: magic a1 b2 c3 d4 little-endian, version 2.4.
  ASSERT_GE(bytes.size(), 24u + 16u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0xd4);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0xc3);
  EXPECT_EQ(static_cast<unsigned char>(bytes[2]), 0xb2);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0xa1);
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), 2);  // version major
  EXPECT_EQ(static_cast<unsigned char>(bytes[6]), 4);  // version minor
  // Record header: ts_usec = 1000 for a 1 ms timestamp.
  const auto u32 = [&](std::size_t off) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[off])) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[off + 1])) << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[off + 2])) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[off + 3])) << 24);
  };
  EXPECT_EQ(u32(24), 0u);     // ts_sec
  EXPECT_EQ(u32(28), 1000u);  // ts_usec
  const std::uint32_t incl_len = u32(32);
  EXPECT_EQ(incl_len, kIpHeaderBytes + kTcpHeaderBytes + 2);
  EXPECT_EQ(bytes.size(), 24u + 16u + incl_len);
}

TEST(PcapWriter, WriteFileRoundtrip) {
  sim::Simulation sim{8};
  PacketCapture cap{sim};
  cap.record(CaptureDirection::kOutbound, tcp_packet(kClient, kServer, {}));
  const std::string path = ::testing::TempDir() + "/bnm_test.pcap";
  const std::size_t written = PcapWriter::write_file(cap, path);
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good());
  in.seekg(0, std::ios::end);
  EXPECT_EQ(static_cast<std::size_t>(in.tellg()), written);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bnm::net
