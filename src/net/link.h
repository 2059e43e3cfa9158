// Point-to-point duplex link with bandwidth, propagation delay, FIFO
// queueing, and optional random loss.
//
// Each direction models a transmitter that serializes one packet at a time
// (wire_size * 8 / rate) and a propagation pipe (fixed delay). Packets
// queued while the transmitter is busy wait their turn, which yields correct
// store-and-forward timing for multi-packet exchanges (throughput
// experiments depend on this).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>

#include "net/loss_process.h"
#include "net/packet.h"
#include "sim/callback.h"
#include "sim/arena.h"
#include "sim/simulation.h"

namespace bnm::net {

/// Anything that can accept a delivered packet (hosts, switches). Packets
/// are handed over by rvalue reference and moved the whole way down the
/// pipeline — each stage takes ownership from its caller's parked copy, so
/// a hop costs one 96-byte move, not one per call boundary.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void handle_packet(Packet&& packet) = 0;
};

/// The next stage of a pipeline component (netem, fault injector) that is
/// not itself a PacketSink.
using PacketOutput = sim::SmallFunction<void(Packet&&)>;

/// Which end of a duplex link a component sits on.
enum class LinkSide { kA, kB };

/// Anything a host can transmit through: an in-domain Link or a
/// cross-domain DomainLink. Hosts hold an Egress* so the same Host code
/// works whether its peer lives in the same scheduler domain or not.
class Egress {
 public:
  virtual ~Egress() = default;
  /// `sink` receives packets arriving at `side`.
  virtual void attach(LinkSide side, PacketSink* sink) = 0;
  /// Enqueue a packet for transmission from `side` toward the other side.
  virtual void transmit(LinkSide side, Packet&& packet) = 0;
};

class Link final : public Egress {
 public:
  using Side = LinkSide;  ///< compat alias; call sites say Link::Side::kA

  struct Config {
    double bandwidth_bps = 100e6;  ///< 100 Mbps Fast Ethernet (paper testbed)
    sim::Duration propagation = sim::Duration::micros(5);
    double loss_probability = 0.0;  ///< per-packet independent drop
    /// Bursty (Gilbert-Elliott) loss; takes precedence over
    /// loss_probability when set. Shared chain across both directions.
    std::optional<GilbertElliottConfig> bursty_loss;
    std::size_t queue_limit_packets = 1000;  ///< tail-drop beyond this
    std::string name = "link";
  };

  Link(sim::Simulation& sim, Config config);

  void attach(Side side, PacketSink* sink) override;

  void transmit(Side side, Packet&& packet) override;

  const Config& config() const { return config_; }
  /// Propagation delay doubles as the conservative lookahead bound when the
  /// link is the cut point of a domain partition.
  sim::Duration lookahead() const { return config_.propagation; }
  std::uint64_t drops(Side side) const;
  std::uint64_t delivered(Side side) const;

  /// Serialization delay of `packet` at this link's rate.
  sim::Duration serialization_delay(const Packet& packet) const;

 private:
  struct Direction {
    PacketSink* sink = nullptr;        ///< receiver at the far end
    sim::TimePoint tx_free;            ///< transmitter busy until
    std::size_t in_flight = 0;         ///< queued or serializing
    std::uint64_t drops = 0;
    std::uint64_t delivered = 0;
  };

  Direction& dir(Side from) { return from == Side::kA ? a_to_b_ : b_to_a_; }
  const Direction& dir(Side from) const {
    return from == Side::kA ? a_to_b_ : b_to_a_;
  }

  sim::Simulation& sim_;
  Config config_;
  sim::Rng rng_;
  LossProcess loss_;
  Direction a_to_b_;
  Direction b_to_a_;
  /// In-flight packets parked until their arrival event fires, in
  /// arena-backed nodes so the delivery closure ([this, sink, dir, iter])
  /// stays within the scheduler's inline storage — no per-packet heap trip.
  std::list<Packet, sim::ArenaAllocator<Packet>> in_flight_;
};

}  // namespace bnm::net
