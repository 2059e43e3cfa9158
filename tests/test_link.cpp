#include <gtest/gtest.h>

#include <vector>

#include "net/link.h"
#include "sim/simulation.h"

namespace bnm::net {
namespace {

class Collector : public PacketSink {
 public:
  explicit Collector(sim::Simulation& sim) : sim_{sim} {}
  void handle_packet(Packet&& p) override {
    packets.push_back(p);
    times.push_back(sim_.now());
  }
  std::vector<Packet> packets;
  std::vector<sim::TimePoint> times;

 private:
  sim::Simulation& sim_;
};

Packet make_packet(std::size_t payload_bytes) {
  Packet p;
  p.protocol = Protocol::kTcp;
  p.payload.assign(payload_bytes, 0xAA);
  return p;
}

class LinkTest : public ::testing::Test {
 protected:
  void build(Link::Config cfg) {
    link = std::make_unique<Link>(sim, cfg);
    a = std::make_unique<Collector>(sim);
    b = std::make_unique<Collector>(sim);
    link->attach(Link::Side::kA, a.get());
    link->attach(Link::Side::kB, b.get());
  }

  sim::Simulation sim{1};
  std::unique_ptr<Link> link;
  std::unique_ptr<Collector> a, b;
};

TEST_F(LinkTest, DeliveryTimeIsSerializationPlusPropagation) {
  Link::Config cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.propagation = sim::Duration::micros(5);
  build(cfg);

  const Packet p = make_packet(960);  // wire = 960 + 40 + 38 = 1038 B
  const sim::Duration ser = link->serialization_delay(p);
  EXPECT_NEAR(ser.us_f(), 1038.0 * 8.0 / 100.0, 0.01);  // 83.04 us

  link->transmit(Link::Side::kA, Packet{p});
  sim.scheduler().run();
  ASSERT_EQ(b->packets.size(), 1u);
  EXPECT_EQ(b->times[0] - sim::TimePoint::epoch(),
            ser + cfg.propagation);
  EXPECT_TRUE(a->packets.empty());  // nothing delivered back to the sender
}

TEST_F(LinkTest, TransmitterSerializesBackToBack) {
  Link::Config cfg;
  cfg.bandwidth_bps = 100e6;
  cfg.propagation = sim::Duration::micros(5);
  build(cfg);

  const Packet p = make_packet(1460);
  const sim::Duration ser = link->serialization_delay(p);
  link->transmit(Link::Side::kA, Packet{p});
  link->transmit(Link::Side::kA, Packet{p});
  link->transmit(Link::Side::kA, Packet{p});
  sim.scheduler().run();
  ASSERT_EQ(b->packets.size(), 3u);
  // Queueing: packet k completes serialization at (k+1)*ser.
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(b->times[static_cast<std::size_t>(k)] - sim::TimePoint::epoch(),
              ser * (k + 1) + cfg.propagation);
  }
}

TEST_F(LinkTest, DirectionsAreIndependent) {
  Link::Config cfg;
  build(cfg);
  link->transmit(Link::Side::kA, make_packet(100));
  link->transmit(Link::Side::kB, make_packet(100));
  sim.scheduler().run();
  EXPECT_EQ(a->packets.size(), 1u);
  EXPECT_EQ(b->packets.size(), 1u);
  // Same size, same start: both arrive at the same instant.
  EXPECT_EQ(a->times[0], b->times[0]);
}

TEST_F(LinkTest, FifoOrderPreserved) {
  Link::Config cfg;
  build(cfg);
  for (std::uint64_t i = 0; i < 20; ++i) {
    Packet p = make_packet(64 + i);
    p.id = i;
    link->transmit(Link::Side::kA, std::move(p));
  }
  sim.scheduler().run();
  ASSERT_EQ(b->packets.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(b->packets[i].id, i);
}

TEST_F(LinkTest, LossDropsApproximatelyAtConfiguredRate) {
  Link::Config cfg;
  cfg.loss_probability = 0.3;
  cfg.queue_limit_packets = 100000;  // isolate loss from tail-drop
  build(cfg);
  const int n = 2000;
  for (int i = 0; i < n; ++i) link->transmit(Link::Side::kA, make_packet(64));
  sim.scheduler().run();
  const double delivered = static_cast<double>(b->packets.size());
  EXPECT_NEAR(delivered / n, 0.7, 0.05);
  EXPECT_EQ(link->drops(Link::Side::kA) + b->packets.size(),
            static_cast<std::uint64_t>(n));
}

TEST_F(LinkTest, QueueLimitTailDrops) {
  Link::Config cfg;
  cfg.queue_limit_packets = 5;
  build(cfg);
  for (int i = 0; i < 10; ++i) link->transmit(Link::Side::kA, make_packet(1460));
  sim.scheduler().run();
  EXPECT_EQ(b->packets.size(), 5u);
  EXPECT_EQ(link->drops(Link::Side::kA), 5u);
}

TEST_F(LinkTest, DeliveredCounter) {
  Link::Config cfg;
  build(cfg);
  link->transmit(Link::Side::kA, make_packet(64));
  link->transmit(Link::Side::kB, make_packet(64));
  sim.scheduler().run();
  EXPECT_EQ(link->delivered(Link::Side::kA), 1u);
  EXPECT_EQ(link->delivered(Link::Side::kB), 1u);
}

TEST_F(LinkTest, SlowerLinkDeliversLater) {
  Link::Config fast;
  fast.bandwidth_bps = 100e6;
  Link::Config slow;
  slow.bandwidth_bps = 10e6;
  sim::Simulation sim2{2};
  Link lf{sim2, fast}, ls{sim2, slow};
  Collector cf{sim2}, cs{sim2};
  lf.attach(Link::Side::kB, &cf);
  ls.attach(Link::Side::kB, &cs);
  lf.transmit(Link::Side::kA, make_packet(1000));
  ls.transmit(Link::Side::kA, make_packet(1000));
  sim2.scheduler().run();
  ASSERT_EQ(cf.packets.size(), 1u);
  ASSERT_EQ(cs.packets.size(), 1u);
  EXPECT_LT(cf.times[0], cs.times[0]);
}

}  // namespace
}  // namespace bnm::net
