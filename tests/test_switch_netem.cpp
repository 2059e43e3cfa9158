#include <gtest/gtest.h>

#include <vector>

#include "net/netem.h"
#include "net/switch_fabric.h"
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

Packet packet_to(IpAddress dst, std::uint64_t id = 0) {
  Packet p;
  p.id = id;
  p.dst = {dst, 80};
  p.payload = to_bytes("x");
  return p;
}

TEST(SwitchFabric, ForwardsByDestination) {
  sim::Simulation sim{1};
  Link::Config lc;
  Link l1{sim, lc}, l2{sim, lc};
  Collector c1{sim}, c2{sim};
  l1.attach(Link::Side::kA, &c1);
  l2.attach(Link::Side::kB, &c2);

  SwitchFabric sw{sim};
  const auto p1 = sw.add_port(&l1, Link::Side::kB);
  const auto p2 = sw.add_port(&l2, Link::Side::kA);
  sw.learn(IpAddress{10, 0, 0, 1}, p1);
  sw.learn(IpAddress{10, 0, 0, 2}, p2);

  sw.handle_packet(packet_to(IpAddress{10, 0, 0, 2}));
  sim.scheduler().run();
  EXPECT_TRUE(c1.packets.empty());
  ASSERT_EQ(c2.packets.size(), 1u);
  EXPECT_EQ(sw.forwarded(), 1u);
}

TEST(SwitchFabric, DropsUnknownDestination) {
  sim::Simulation sim{2};
  SwitchFabric sw{sim};
  sw.handle_packet(packet_to(IpAddress{9, 9, 9, 9}));
  sim.scheduler().run();
  EXPECT_EQ(sw.dropped_no_route(), 1u);
  EXPECT_EQ(sw.forwarded(), 0u);
}

TEST(SwitchFabric, ForwardingLatencyApplied) {
  sim::Simulation sim{3};
  Link::Config lc;
  lc.propagation = sim::Duration::zero();
  Link l{sim, lc};
  Collector c{sim};
  l.attach(Link::Side::kB, &c);

  SwitchFabric::Config sc;
  sc.forwarding_latency = sim::Duration::micros(50);
  SwitchFabric sw{sim, sc};
  const auto port = sw.add_port(&l, Link::Side::kA);
  sw.learn(IpAddress{10, 0, 0, 2}, port);

  sw.handle_packet(packet_to(IpAddress{10, 0, 0, 2}));
  sim.scheduler().run();
  ASSERT_EQ(c.packets.size(), 1u);
  EXPECT_GE(c.times[0] - sim::TimePoint::epoch(), sim::Duration::micros(50));
}

TEST(DelayEmulator, ConstantDelayShiftsRelease) {
  sim::Simulation sim{4};
  DelayEmulator::Config cfg;
  cfg.delay = sim::Duration::millis(50);
  DelayEmulator netem{sim, cfg};
  std::vector<sim::TimePoint> releases;
  netem.set_output([&](Packet) { releases.push_back(sim.now()); });

  netem.enqueue(packet_to(IpAddress{1, 1, 1, 1}));
  sim.scheduler().run();
  ASSERT_EQ(releases.size(), 1u);
  EXPECT_EQ(releases[0] - sim::TimePoint::epoch(), sim::Duration::millis(50));
}

TEST(DelayEmulator, JitterWithoutReorderKeepsOrder) {
  sim::Simulation sim{5};
  DelayEmulator::Config cfg;
  cfg.delay = sim::Duration::millis(10);
  cfg.jitter = sim::Duration::millis(20);
  cfg.allow_reorder = false;
  DelayEmulator netem{sim, cfg};
  std::vector<std::uint64_t> order;
  netem.set_output([&](Packet p) { order.push_back(p.id); });

  for (std::uint64_t i = 0; i < 50; ++i) {
    netem.enqueue(packet_to(IpAddress{1, 1, 1, 1}, i));
  }
  sim.scheduler().run();
  ASSERT_EQ(order.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(order[i], i);
}

TEST(DelayEmulator, AllowReorderCanReorder) {
  sim::Simulation sim{6};
  DelayEmulator::Config cfg;
  cfg.delay = sim::Duration::millis(1);
  cfg.jitter = sim::Duration::millis(50);
  cfg.allow_reorder = true;
  DelayEmulator netem{sim, cfg};
  std::vector<std::uint64_t> order;
  netem.set_output([&](Packet p) { order.push_back(p.id); });

  for (std::uint64_t i = 0; i < 100; ++i) {
    netem.enqueue(packet_to(IpAddress{1, 1, 1, 1}, i));
  }
  sim.scheduler().run();
  ASSERT_EQ(order.size(), 100u);
  bool reordered = false;
  for (std::size_t i = 1; i < order.size(); ++i) {
    if (order[i] < order[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(DelayEmulator, SetDelayTakesEffect) {
  sim::Simulation sim{7};
  DelayEmulator::Config cfg;
  cfg.delay = sim::Duration::millis(5);
  DelayEmulator netem{sim, cfg};
  std::vector<sim::TimePoint> releases;
  netem.set_output([&](Packet) { releases.push_back(sim.now()); });
  netem.enqueue(packet_to(IpAddress{1, 1, 1, 1}));
  sim.scheduler().run();
  netem.set_delay(sim::Duration::millis(20));
  const sim::TimePoint before = sim.now();
  netem.enqueue(packet_to(IpAddress{1, 1, 1, 1}));
  sim.scheduler().run();
  ASSERT_EQ(releases.size(), 2u);
  EXPECT_EQ(releases[1] - before, sim::Duration::millis(20));
}

}  // namespace
}  // namespace bnm::net
