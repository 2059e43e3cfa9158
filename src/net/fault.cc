#include "net/fault.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace bnm::net {

namespace {

// Process-wide per-kind totals in the obs registry ("fault.*" in
// docs/OBSERVABILITY.md), alongside the per-injector FaultCounters that
// tests and the resilience report consume. The array is indexed by
// FaultKind and also carries an instant trace attribute vocabulary.
const obs::Counter& fault_counter(FaultKind kind) {
  static const obs::Counter counters[] = {
      obs::MetricsRegistry::instance().counter(
          "fault.iid_losses", "packets", "packets dropped by i.i.d. loss"),
      obs::MetricsRegistry::instance().counter(
          "fault.burst_losses", "packets",
          "packets dropped by Gilbert-Elliott bursts"),
      obs::MetricsRegistry::instance().counter(
          "fault.corrupted", "packets", "packets corrupted in flight"),
      obs::MetricsRegistry::instance().counter(
          "fault.duplicated", "packets", "packets duplicated in flight"),
      obs::MetricsRegistry::instance().counter(
          "fault.blackholed", "packets",
          "packets swallowed by blackhole windows"),
      obs::MetricsRegistry::instance().counter(
          "fault.flap_drops", "packets", "packets dropped by link flaps"),
      obs::MetricsRegistry::instance().counter(
          "fault.scripted_drops", "packets",
          "data segments dropped by scripted ordinals"),
  };
  return counters[static_cast<std::size_t>(kind)];
}

}  // namespace

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kIidLoss: return "loss";
    case FaultKind::kBurstLoss: return "burst-loss";
    case FaultKind::kCorrupt: return "corrupt";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kBlackhole: return "blackhole";
    case FaultKind::kFlap: return "flap";
    case FaultKind::kScriptedDrop: return "scripted-drop";
  }
  return "?";
}

FaultPlan& FaultPlan::blackhole(sim::TimePoint begin, sim::TimePoint end) {
  blackholes.push_back({begin, end});
  return *this;
}

FaultPlan& FaultPlan::flap(sim::TimePoint first_down, sim::Duration down_for,
                           sim::Duration period, std::size_t count) {
  sim::TimePoint t = first_down;
  for (std::size_t i = 0; i < count; ++i) {
    flaps.push_back({t, t + down_for});
    t += period;
  }
  return *this;
}

FaultPlan& FaultPlan::drop_nth_data_segment(std::uint64_t n) {
  drop_data_segments.push_back(n);
  return *this;
}

bool FaultPlan::empty() const {
  return loss_probability <= 0.0 && !bursty_loss &&
         corrupt_probability <= 0.0 && duplicate_probability <= 0.0 &&
         blackholes.empty() && flaps.empty() && drop_data_segments.empty();
}

namespace {

void check_probability(const std::string& plan, const char* knob, double p) {
  if (!(p >= 0.0 && p <= 1.0)) {  // !(..) also rejects NaN
    throw std::invalid_argument{"FaultPlan '" + plan + "': " + knob + " = " +
                                std::to_string(p) +
                                " is outside [0, 1]"};
  }
}

void check_windows(const std::string& plan, const char* knob,
                   const std::vector<TimeWindow>& windows) {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    if (windows[i].end < windows[i].begin) {
      throw std::invalid_argument{
          "FaultPlan '" + plan + "': " + knob + "[" + std::to_string(i) +
          "] is inverted (" + windows[i].begin.to_string() + " > " +
          windows[i].end.to_string() + ")"};
    }
  }
}

}  // namespace

void FaultPlan::validate() const {
  check_probability(name, "loss_probability", loss_probability);
  check_probability(name, "corrupt_probability", corrupt_probability);
  check_probability(name, "duplicate_probability", duplicate_probability);
  if (bursty_loss) {
    check_probability(name, "bursty_loss.p_good_to_bad",
                      bursty_loss->p_good_to_bad);
    check_probability(name, "bursty_loss.p_bad_to_good",
                      bursty_loss->p_bad_to_good);
    check_probability(name, "bursty_loss.loss_good", bursty_loss->loss_good);
    check_probability(name, "bursty_loss.loss_bad", bursty_loss->loss_bad);
  }
  check_windows(name, "blackholes", blackholes);
  check_windows(name, "flaps", flaps);
  for (std::size_t i = 0; i < drop_data_segments.size(); ++i) {
    if (drop_data_segments[i] == 0) {
      throw std::invalid_argument{
          "FaultPlan '" + name + "': drop_data_segments[" +
          std::to_string(i) + "] is 0 (ordinals are 1-based)"};
    }
  }
}

FaultInjector::FaultInjector(sim::Simulation& sim, FaultPlan plan)
    : sim_{sim},
      plan_{std::move(plan)},
      rng_{sim.rng_for(plan_.name)},
      active_{!plan_.empty()} {
  plan_.validate();
  if (plan_.bursty_loss) {
    loss_ = LossProcess::bursty(*plan_.bursty_loss);
  } else {
    loss_ = LossProcess::iid(plan_.loss_probability);
  }
}

void FaultInjector::set_output(PacketSink* sink) {
  assert(sink);
  output_ = [sink](Packet&& p) { sink->handle_packet(std::move(p)); };
}

void FaultInjector::note(FaultKind kind, const Packet& packet) {
  switch (kind) {
    case FaultKind::kIidLoss: ++counters_.iid_losses; break;
    case FaultKind::kBurstLoss: ++counters_.burst_losses; break;
    case FaultKind::kCorrupt: ++counters_.corrupted; break;
    case FaultKind::kDuplicate: ++counters_.duplicated; break;
    case FaultKind::kBlackhole: ++counters_.blackholed; break;
    case FaultKind::kFlap: ++counters_.flap_drops; break;
    case FaultKind::kScriptedDrop: ++counters_.scripted_drops; break;
  }
  fault_counter(kind).add(1);
  if (events_.size() < plan_.max_events) {
    events_.push_back({sim_.now(), kind, packet.id});
  }
  if (sim_.trace().enabled()) {
    sim_.trace().emit_instant(
        sim_.now(), plan_.name,
        std::string{to_string(kind)} + " " + packet.to_string(),
        {{"fault", std::string{to_string(kind)}},
         {"packet_id", static_cast<std::int64_t>(packet.id)}});
  }
}

std::optional<FaultKind> FaultInjector::apply_drop_faults(
    const Packet& packet) {
  if (!plan_.drop_data_segments.empty() && packet.carries_data()) {
    const std::uint64_t ordinal = ++data_ordinal_;
    if (std::find(plan_.drop_data_segments.begin(),
                  plan_.drop_data_segments.end(),
                  ordinal) != plan_.drop_data_segments.end()) {
      return FaultKind::kScriptedDrop;
    }
  }
  const sim::TimePoint now = sim_.now();
  for (const TimeWindow& w : plan_.blackholes) {
    if (w.contains(now)) return FaultKind::kBlackhole;
  }
  for (const TimeWindow& w : plan_.flaps) {
    if (w.contains(now)) return FaultKind::kFlap;
  }
  if (loss_.enabled() && loss_.should_drop(rng_)) {
    return loss_.is_bursty() ? FaultKind::kBurstLoss : FaultKind::kIidLoss;
  }
  return std::nullopt;
}

void FaultInjector::handle_packet(Packet&& packet) {
  assert(output_ && "FaultInjector has no output stage");
  ++counters_.seen;
  if (!active_) {  // pass-through: no RNG draws, no window scans
    ++counters_.forwarded;
    output_(std::move(packet));
    return;
  }
  if (const auto drop = apply_drop_faults(packet)) {
    note(*drop, packet);
    return;
  }
  if (plan_.corrupt_probability > 0.0 &&
      rng_.chance(plan_.corrupt_probability)) {
    packet.corrupted = true;
    note(FaultKind::kCorrupt, packet);
  }
  if (plan_.duplicate_probability > 0.0 &&
      rng_.chance(plan_.duplicate_probability)) {
    note(FaultKind::kDuplicate, packet);
    ++counters_.forwarded;
    output_(Packet{packet});  // the copy; the original follows
  }
  ++counters_.forwarded;
  output_(std::move(packet));
}

}  // namespace bnm::net
