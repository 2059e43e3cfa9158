#include "net/domain_link.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/simulation.h"

namespace bnm::net {

DomainLink::DomainLink(sim::DomainScheduler& domains,
                       sim::DomainScheduler::DomainId dom_a,
                       sim::DomainScheduler::DomainId dom_b, Config config)
    : domains_{domains}, config_{std::move(config)} {
  assert(config_.bandwidth_bps > 0);
  a_to_b_.src = &domains.domain(dom_a);
  a_to_b_.channel = domains.add_channel(dom_a, dom_b, config_.propagation);
  b_to_a_.src = &domains.domain(dom_b);
  b_to_a_.channel = domains.add_channel(dom_b, dom_a, config_.propagation);
}

void DomainLink::attach(LinkSide side, PacketSink* sink) {
  // `sink` is the receiver *on* `side`; store it in the direction that
  // delivers toward that side.
  Direction& d = side == LinkSide::kA ? b_to_a_ : a_to_b_;
  d.sink = sink;
}

sim::Duration DomainLink::serialization_delay(const Packet& packet) const {
  const double bits = static_cast<double>(packet.wire_size()) * 8.0;
  return sim::Duration::from_seconds_f(bits / config_.bandwidth_bps);
}

void DomainLink::transmit(LinkSide side, Packet&& packet) {
  Direction& d = dir(side);
  assert(d.sink && "link side not attached");
  sim::Simulation& src = *d.src;

  if (d.in_flight >= config_.queue_limit_packets) {
    ++d.drops;
    if (src.trace().enabled()) {
      src.trace().emit(src.now(), config_.name,
                       "tail-drop " + packet.to_string());
    }
    return;
  }

  const sim::TimePoint start = std::max(src.now(), d.tx_free);
  const sim::TimePoint tx_done = start + serialization_delay(packet);
  d.tx_free = tx_done;
  ++d.in_flight;
  Direction* dp = &d;
  // Transmitter slot frees at tx_done, a source-domain event (see header).
  src.scheduler().post_at(tx_done, [dp] { --dp->in_flight; });

  if (src.trace().enabled()) {
    src.trace().emit_span(
        src.now(), (tx_done + config_.propagation) - src.now(), config_.name,
        "hop " + packet.to_string(),
        {{"packet_id", static_cast<std::int64_t>(packet.id)},
         {"wire_bytes", static_cast<std::int64_t>(packet.wire_size())}});
  }

  // Delivery at src.now() + propagation + extra == tx_done + propagation,
  // matching Link exactly. The closure runs in the destination domain;
  // the payload handoff is zero-copy (atomic refcounts).
  PacketSink* sink = d.sink;
  domains_.post_remote(d.channel, tx_done - src.now(),
                       [sink, dp, pkt = std::move(packet)]() mutable {
                         ++dp->delivered;
                         sink->handle_packet(std::move(pkt));
                       });
}

}  // namespace bnm::net
