// Composable fault injection for the packet pipeline.
//
// A FaultInjector is a PacketSink stage that can be spliced between any two
// pipeline stages (link/switch/netem/host, either direction). It executes a
// FaultPlan: stochastic impairments (i.i.d. or Gilbert-Elliott bursty loss,
// payload corruption, duplication) plus scripted deterministic faults
// ("drop the Nth data segment", "blackhole [t1,t2)", timed link flaps).
// Every fault is counted per kind and appended to a bounded event trace, so
// experiments can account for exactly which impairments each run saw.
//
// Determinism: the injector draws from its own forked RNG stream, and every
// draw is gated on the corresponding knob being configured — an injector
// with an empty plan consumes zero random numbers and is a pure pass-through,
// so inserting a disabled stage never perturbs baseline results.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/link.h"
#include "net/loss_process.h"
#include "net/packet.h"
#include "sim/arena.h"
#include "sim/simulation.h"

namespace bnm::net {

enum class FaultKind : std::uint8_t {
  kIidLoss,       ///< independent per-packet loss
  kBurstLoss,     ///< Gilbert-Elliott chain drop
  kCorrupt,       ///< payload corrupted in flight (receiver checksum-drops)
  kDuplicate,     ///< packet duplicated in flight
  kBlackhole,     ///< inside a scripted blackhole window
  kFlap,          ///< link down (timed flap window)
  kScriptedDrop,  ///< "drop the Nth data segment"
};

const char* to_string(FaultKind kind);

/// Half-open wall-clock window [begin, end) in simulation time.
struct TimeWindow {
  sim::TimePoint begin;
  sim::TimePoint end;
  bool contains(sim::TimePoint t) const { return t >= begin && t < end; }
};

/// One injected fault, for the bounded event trace.
struct FaultEvent {
  sim::TimePoint time;
  FaultKind kind = FaultKind::kIidLoss;
  std::uint64_t packet_id = 0;
};

struct FaultCounters {
  std::uint64_t seen = 0;       ///< packets entering the stage
  std::uint64_t forwarded = 0;  ///< packets leaving it (incl. corrupted)
  std::uint64_t iid_losses = 0;
  std::uint64_t burst_losses = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t blackholed = 0;
  std::uint64_t flap_drops = 0;
  std::uint64_t scripted_drops = 0;

  std::uint64_t dropped() const {
    return iid_losses + burst_losses + blackholed + flap_drops +
           scripted_drops;
  }
};

/// Declarative description of the faults one injector executes. All knobs
/// default off; an empty plan makes the injector a pass-through.
struct FaultPlan {
  std::string name = "faults";

  // --- stochastic impairments ---
  double loss_probability = 0.0;  ///< i.i.d. per-packet loss
  std::optional<GilbertElliottConfig> bursty_loss;
  double corrupt_probability = 0.0;  ///< mark corrupted; receiver drops it
  double duplicate_probability = 0.0;

  // --- scripted deterministic faults ---
  std::vector<TimeWindow> blackholes;
  std::vector<TimeWindow> flaps;  ///< link-down windows
  /// 1-based ordinals of data-carrying packets to drop (pure ACKs and bare
  /// SYN/FIN segments are not counted).
  std::vector<std::uint64_t> drop_data_segments;

  std::size_t max_events = 4096;  ///< event-trace cap

  // Fluent builders (return *this for chaining).
  FaultPlan& blackhole(sim::TimePoint begin, sim::TimePoint end);
  /// `count` down-windows of `down_for`, the first starting at `first_down`,
  /// subsequent ones every `period`.
  FaultPlan& flap(sim::TimePoint first_down, sim::Duration down_for,
                  sim::Duration period, std::size_t count);
  FaultPlan& drop_nth_data_segment(std::uint64_t n);

  bool empty() const;

  /// Reject ill-formed plans with a descriptive std::invalid_argument
  /// naming the offending knob: probabilities must lie in [0, 1] (including
  /// the Gilbert-Elliott fields), window begins must not exceed their ends,
  /// and scripted drop ordinals are 1-based. Called on FaultInjector
  /// construction, so a bad plan fails fast at wiring time instead of
  /// silently skewing a campaign's loss rates.
  void validate() const;
};

/// Pipeline stage executing a FaultPlan. Insert it anywhere a PacketSink is
/// accepted, or drive it via handle_packet() and wire set_output() to the
/// next stage.
class FaultInjector : public PacketSink {
 public:
  FaultInjector(sim::Simulation& sim, FaultPlan plan);

  void set_output(PacketOutput output) {
    output_ = std::move(output);
  }
  void set_output(PacketSink* sink);

  /// Process one packet: apply the plan, forward survivors downstream.
  void handle_packet(Packet&& packet) override;

  /// False when the plan is empty (stage is a zero-draw pass-through).
  bool active() const { return active_; }

  /// Bounded event trace, in an arena-backed container (the injector lives
  /// and dies with its testbed, within one arena epoch).
  using EventTrace = std::vector<FaultEvent, sim::ArenaAllocator<FaultEvent>>;

  const FaultPlan& plan() const { return plan_; }
  const FaultCounters& counters() const { return counters_; }
  const EventTrace& events() const { return events_; }

 private:
  /// Returns the drop reason, or nullopt if the packet survives the drop
  /// stages. May mark `packet` corrupted (a non-drop fault).
  std::optional<FaultKind> apply_drop_faults(const Packet& packet);
  void note(FaultKind kind, const Packet& packet);

  sim::Simulation& sim_;
  FaultPlan plan_;
  sim::Rng rng_;
  LossProcess loss_;
  bool active_ = false;
  PacketOutput output_;
  std::uint64_t data_ordinal_ = 0;
  FaultCounters counters_;
  EventTrace events_;
};

}  // namespace bnm::net
