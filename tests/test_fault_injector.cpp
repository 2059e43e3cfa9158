// Fault-injection primitives: LossProcess (i.i.d. and Gilbert-Elliott),
// the FaultInjector stage (scripted drops, blackholes, flaps, corruption,
// duplication, counters, bounded event trace), netem loss/duplication
// parity, and host-side checksum drops of corrupted packets.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "net/fault.h"
#include "net/host.h"
#include "net/netem.h"
#include "net/payload.h"
#include "sim/simulation.h"

namespace bnm::net {
namespace {

class Collector : public PacketSink {
 public:
  void handle_packet(Packet&& p) override { packets.push_back(std::move(p)); }
  std::vector<Packet> packets;
};

Packet make_data_packet(std::size_t payload_bytes = 16) {
  Packet p;
  p.protocol = Protocol::kTcp;
  p.flags.ack = true;
  p.flags.psh = true;
  p.payload.assign(payload_bytes, 0xAB);
  return p;
}

Packet make_pure_ack() {
  Packet p;
  p.protocol = Protocol::kTcp;
  p.flags.ack = true;
  return p;
}

// ----------------------------------------------------------- LossProcess

TEST(LossProcess, DisabledByDefaultAndAtZeroProbability) {
  EXPECT_FALSE(LossProcess{}.enabled());
  EXPECT_FALSE(LossProcess::iid(0.0).enabled());
  EXPECT_TRUE(LossProcess::iid(0.5).enabled());
  EXPECT_FALSE(LossProcess::iid(0.5).is_bursty());
}

TEST(LossProcess, IidCertainLossDropsEverything) {
  sim::Simulation sim{1};
  auto rng = sim.rng_for("loss");
  auto lp = LossProcess::iid(1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(lp.should_drop(rng));
}

TEST(LossProcess, GilbertElliottStationaryRateFormula) {
  GilbertElliottConfig ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.5;
  // pi_bad = p_g2b / (p_g2b + p_b2g); loss_good = 0, loss_bad = 1.
  EXPECT_NEAR(ge.stationary_loss_rate(), 0.05 / 0.55, 1e-12);
}

TEST(LossProcess, GilbertElliottEmpiricalRateMatchesStationary) {
  GilbertElliottConfig ge;
  ge.p_good_to_bad = 0.05;
  ge.p_bad_to_good = 0.4;
  sim::Simulation sim{2};
  auto rng = sim.rng_for("ge");
  auto lp = LossProcess::bursty(ge);
  const int n = 200000;
  int drops = 0;
  for (int i = 0; i < n; ++i) {
    if (lp.should_drop(rng)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / n, ge.stationary_loss_rate(),
              0.01);
}

TEST(LossProcess, GilbertElliottLossComesInBursts) {
  GilbertElliottConfig ge;
  ge.p_good_to_bad = 0.02;
  ge.p_bad_to_good = 0.3;  // mean bad-state sojourn ~ 1/0.3 = 3.3 packets
  sim::Simulation sim{3};
  auto rng = sim.rng_for("ge");
  auto lp = LossProcess::bursty(ge);
  int bursts = 0, drops = 0;
  bool in_burst = false;
  for (int i = 0; i < 100000; ++i) {
    const bool drop = lp.should_drop(rng);
    if (drop) {
      ++drops;
      if (!in_burst) ++bursts;
    }
    in_burst = drop;
  }
  ASSERT_GT(bursts, 0);
  const double mean_burst = static_cast<double>(drops) / bursts;
  EXPECT_GT(mean_burst, 2.0);  // far above the i.i.d. value of ~1
  EXPECT_LT(mean_burst, 5.0);
}

// --------------------------------------------------------- FaultInjector

TEST(FaultInjector, EmptyPlanIsInactivePassThrough) {
  sim::Simulation sim{1};
  FaultInjector fi{sim, FaultPlan{}};
  Collector out;
  fi.set_output(&out);

  EXPECT_FALSE(fi.active());
  for (int i = 0; i < 5; ++i) fi.handle_packet(make_data_packet());
  EXPECT_EQ(out.packets.size(), 5u);
  EXPECT_EQ(fi.counters().seen, 5u);
  EXPECT_EQ(fi.counters().forwarded, 5u);
  EXPECT_EQ(fi.counters().dropped(), 0u);
  EXPECT_TRUE(fi.events().empty());
}

TEST(FaultInjector, ScriptedDropHitsExactlyTheNthDataSegment) {
  sim::Simulation sim{1};
  FaultPlan plan;
  plan.drop_nth_data_segment(2).drop_nth_data_segment(4);
  FaultInjector fi{sim, plan};
  Collector out;
  fi.set_output(&out);

  // data(1), ack, data(2: dropped), data(3), data(4: dropped)
  fi.handle_packet(make_data_packet());
  fi.handle_packet(make_pure_ack());  // not a data segment: not counted
  fi.handle_packet(make_data_packet());
  fi.handle_packet(make_data_packet());
  fi.handle_packet(make_data_packet());

  EXPECT_EQ(out.packets.size(), 3u);
  EXPECT_EQ(fi.counters().scripted_drops, 2u);
  EXPECT_EQ(fi.counters().forwarded, 3u);
  ASSERT_EQ(fi.events().size(), 2u);
  EXPECT_EQ(fi.events()[0].kind, FaultKind::kScriptedDrop);
}

TEST(FaultInjector, BlackholeWindowIsHalfOpen) {
  sim::Simulation sim{1};
  const auto t0 = sim::TimePoint::epoch();
  FaultPlan plan;
  plan.blackhole(t0 + sim::Duration::millis(100),
                 t0 + sim::Duration::millis(200));
  FaultInjector fi{sim, plan};
  Collector out;
  fi.set_output(&out);

  auto send_at = [&](int ms) {
    sim.scheduler().schedule_at(t0 + sim::Duration::millis(ms),
                                [&] { fi.handle_packet(make_data_packet()); });
  };
  send_at(50);    // before: forwarded
  send_at(100);   // boundary start: dropped (window is [begin, end))
  send_at(150);   // inside: dropped
  send_at(200);   // boundary end: forwarded
  send_at(250);   // after: forwarded
  sim.scheduler().run();

  EXPECT_EQ(out.packets.size(), 3u);
  EXPECT_EQ(fi.counters().blackholed, 2u);
}

TEST(FaultInjector, FlapBuilderMakesPeriodicDownWindows) {
  sim::Simulation sim{1};
  const auto t0 = sim::TimePoint::epoch();
  FaultPlan plan;
  plan.flap(t0 + sim::Duration::millis(10), sim::Duration::millis(5),
            sim::Duration::millis(20), 3);
  ASSERT_EQ(plan.flaps.size(), 3u);
  EXPECT_EQ(plan.flaps[1].begin, t0 + sim::Duration::millis(30));
  EXPECT_EQ(plan.flaps[1].end, t0 + sim::Duration::millis(35));

  FaultInjector fi{sim, plan};
  Collector out;
  fi.set_output(&out);
  sim.scheduler().schedule_at(t0 + sim::Duration::millis(31),
                              [&] { fi.handle_packet(make_data_packet()); });
  sim.scheduler().schedule_at(t0 + sim::Duration::millis(40),
                              [&] { fi.handle_packet(make_data_packet()); });
  sim.scheduler().run();

  EXPECT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(fi.counters().flap_drops, 1u);
}

TEST(FaultInjector, CorruptionMarksThePacketButForwardsIt) {
  sim::Simulation sim{1};
  FaultPlan plan;
  plan.corrupt_probability = 1.0;
  FaultInjector fi{sim, plan};
  Collector out;
  fi.set_output(&out);

  fi.handle_packet(make_data_packet());
  ASSERT_EQ(out.packets.size(), 1u);
  EXPECT_TRUE(out.packets[0].corrupted);
  EXPECT_EQ(fi.counters().corrupted, 1u);
  EXPECT_EQ(fi.counters().forwarded, 1u);
  EXPECT_EQ(fi.counters().dropped(), 0u);
}

TEST(FaultInjector, DuplicationEmitsCopyThenOriginal) {
  sim::Simulation sim{1};
  FaultPlan plan;
  plan.duplicate_probability = 1.0;
  FaultInjector fi{sim, plan};
  Collector out;
  fi.set_output(&out);

  Packet p = make_data_packet();
  p.id = 77;
  fi.handle_packet(Packet{p});
  ASSERT_EQ(out.packets.size(), 2u);
  EXPECT_EQ(out.packets[0].id, 77u);
  EXPECT_EQ(out.packets[1].id, 77u);
  EXPECT_EQ(fi.counters().duplicated, 1u);
  EXPECT_EQ(fi.counters().forwarded, 2u);
}

TEST(FaultInjector, EventTraceIsBoundedButCountersAreNot) {
  sim::Simulation sim{1};
  FaultPlan plan;
  plan.loss_probability = 1.0;
  plan.max_events = 4;
  FaultInjector fi{sim, plan};
  Collector out;
  fi.set_output(&out);

  for (int i = 0; i < 10; ++i) fi.handle_packet(make_data_packet());
  EXPECT_EQ(fi.events().size(), 4u);
  EXPECT_EQ(fi.counters().iid_losses, 10u);
  EXPECT_TRUE(out.packets.empty());
}

// -------------------------------------------------- netem parity (satellite)

TEST(NetemFaults, CertainLossDropsBeforeDelay) {
  sim::Simulation sim{1};
  DelayEmulator::Config cfg;
  cfg.delay = sim::Duration::millis(1);
  cfg.loss_probability = 1.0;
  DelayEmulator netem{sim, cfg};
  Collector out;
  netem.set_output([&out](Packet p) { out.handle_packet(std::move(p)); });

  for (int i = 0; i < 7; ++i) netem.enqueue(make_data_packet());
  sim.scheduler().run();
  EXPECT_TRUE(out.packets.empty());
  EXPECT_EQ(netem.drops(), 7u);
}

TEST(NetemFaults, CertainDuplicationDoublesDelivery) {
  sim::Simulation sim{1};
  DelayEmulator::Config cfg;
  cfg.delay = sim::Duration::millis(1);
  cfg.duplicate_probability = 1.0;
  DelayEmulator netem{sim, cfg};
  Collector out;
  netem.set_output([&out](Packet p) { out.handle_packet(std::move(p)); });

  for (int i = 0; i < 3; ++i) netem.enqueue(make_data_packet());
  sim.scheduler().run();
  EXPECT_EQ(out.packets.size(), 6u);
  EXPECT_EQ(netem.duplicates(), 3u);
}

TEST(NetemFaults, DeterministicBurstyChainSticksInBadState) {
  // loss_good=0, p_g2b=1, p_b2g=0: the first packet passes (Good state),
  // the chain then enters Bad forever and everything else is dropped.
  sim::Simulation sim{1};
  DelayEmulator::Config cfg;
  cfg.delay = sim::Duration::millis(1);
  GilbertElliottConfig ge;
  ge.p_good_to_bad = 1.0;
  ge.p_bad_to_good = 0.0;
  cfg.bursty_loss = ge;
  DelayEmulator netem{sim, cfg};
  Collector out;
  netem.set_output([&out](Packet p) { out.handle_packet(std::move(p)); });

  for (int i = 0; i < 5; ++i) netem.enqueue(make_data_packet());
  sim.scheduler().run();
  EXPECT_EQ(out.packets.size(), 1u);
  EXPECT_EQ(netem.drops(), 4u);
}

// --------------------------------------------- receiver checksum semantics

TEST(ChecksumDrop, CorruptedPacketIsCapturedButNeverDemuxed) {
  sim::Simulation sim{5};
  Host::Config hc;
  hc.name = "rx";
  hc.ip = IpAddress{10, 0, 0, 9};
  FaultPlan plan;
  plan.name = "rx-ingress";
  plan.corrupt_probability = 1.0;
  hc.ingress_faults = plan;
  Host host{sim, hc};

  int received = 0;
  auto sock = host.udp_open(4000, [&](Endpoint, const Payload&) {
    ++received;
  });

  Packet p;
  p.protocol = Protocol::kUdp;
  p.src = Endpoint{IpAddress{10, 0, 0, 8}, 5000};
  p.dst = Endpoint{host.ip(), 4000};
  p.payload.assign(8, 0x42);
  static_cast<PacketSink&>(host).handle_packet(Packet{p});
  sim.scheduler().run();

  EXPECT_EQ(received, 0);
  EXPECT_EQ(host.checksum_drops(), 1u);
  // The capture tap sits before the checksum check, like a real NIC tap:
  // the corrupted frame is on record even though the stack discarded it.
  EXPECT_EQ(host.capture().size(), 1u);
  EXPECT_EQ(host.ingress_faults()->counters().corrupted, 1u);
}

}  // namespace
}  // namespace bnm::net
