// Cross-domain duplex link: the cut point of a domain-partitioned topology.
//
// Timing is identical to Link (serialize at the source, propagate, deliver),
// but the two ends live in different DomainScheduler domains: the source
// side computes queueing + serialization against its own clock, then hands
// the packet to the destination domain through a DomainScheduler channel
// whose latency is the propagation delay. That latency is exactly the
// conservative lookahead the window protocol synchronizes on, so a
// partition cut along DomainLinks is race-free by construction.
//
// Differences from Link, both forced by the partition:
//   * no loss process — Link shares one RNG chain across both directions,
//     which cannot be drawn deterministically from two threads. Cut the
//     topology along lossless links (the usual case: loss is modelled on
//     access links, partitions cut the long-haul core).
//   * the transmitter slot frees at tx_done (a source-domain event), not at
//     delivery — in_flight accounting never crosses the domain boundary.
//     Under the queue limit both schemes admit the same packets whenever
//     the queue never fills, and propagation only extends occupancy.
#pragma once

#include <cstdint>
#include <string>

#include "net/link.h"
#include "net/packet.h"
#include "sim/domain.h"

namespace bnm::net {

class DomainLink final : public Egress {
 public:
  struct Config {
    double bandwidth_bps = 100e6;
    /// Propagation delay == channel lookahead; must be > 0.
    sim::Duration propagation = sim::Duration::micros(5);
    std::size_t queue_limit_packets = 1000;
    std::string name = "dlink";
  };

  /// Registers an a->b and a b->a channel on `domains`. Side kA lives in
  /// domain `dom_a`, side kB in `dom_b`; both must already be added.
  DomainLink(sim::DomainScheduler& domains,
             sim::DomainScheduler::DomainId dom_a,
             sim::DomainScheduler::DomainId dom_b, Config config);

  /// `sink` receives packets arriving *at* `side`; it must live in that
  /// side's domain.
  void attach(LinkSide side, PacketSink* sink) override;

  /// Must be called from the side's own domain (its thread, during a
  /// window) — normal packet flow satisfies this automatically.
  void transmit(LinkSide side, Packet&& packet) override;

  const Config& config() const { return config_; }
  sim::Duration lookahead() const { return config_.propagation; }
  std::uint64_t drops(LinkSide side) const { return dir(side).drops; }
  std::uint64_t delivered(LinkSide side) const { return dir(side).delivered; }

  sim::Duration serialization_delay(const Packet& packet) const;

 private:
  struct Direction {
    PacketSink* sink = nullptr;  ///< receiver at the far end (dst domain)
    sim::DomainScheduler::ChannelId channel = 0;
    sim::Simulation* src = nullptr;
    sim::TimePoint tx_free;     ///< src-domain state
    std::size_t in_flight = 0;  ///< src-domain state
    std::uint64_t drops = 0;    ///< src-domain state
    /// Bumped by the delivery closure in the *destination* domain; distinct
    /// field, so concurrent windows never touch the same memory location.
    std::uint64_t delivered = 0;
  };

  Direction& dir(LinkSide from) {
    return from == LinkSide::kA ? a_to_b_ : b_to_a_;
  }
  const Direction& dir(LinkSide from) const {
    return from == LinkSide::kA ? a_to_b_ : b_to_a_;
  }

  sim::DomainScheduler& domains_;
  Config config_;
  Direction a_to_b_;
  Direction b_to_a_;
};

}  // namespace bnm::net
