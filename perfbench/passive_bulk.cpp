// passive_bulk: the capture-to-offline-analysis path. A testbed with RFC
// 7323 timestamps carries keep-alive HTTP GETs with 64 KiB bodies and a
// WebSocket echo volley, with scripted data-segment drops so retransmissions
// reach the matcher's Karn-poisoning path. The client tap is consumed by a
// PassiveRttEstimator, written as a pcap to memory with PcapWriter, re-read
// with PcapReader and consumed again offline; the two reports must be
// byte-identical. One group is a run of scenarios with consecutive testbed
// seeds. Unit: one captured packet; batch: one scenario.
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common.h"
#include "core/testbed.h"
#include "http/client.h"
#include "net/pcap_reader.h"
#include "net/pcap_writer.h"
#include "passive/rtt_estimator.h"
#include "sim/random.h"
#include "ws/endpoint.h"

namespace perfbench {
namespace {

using namespace bnm;

constexpr int kScenariosPerGroup = 8;
constexpr int kExchanges = 16;
constexpr int kWsMessages = 16;
constexpr std::size_t kBodyBytes = 64 * 1024;

struct Scenario {
  std::uint64_t packets = 0;
  int completed = 0;  ///< HTTP 200s plus WebSocket echoes
  std::string report;
  std::string problem;
};

/// Seeded testbed: timestamps on, two client data segments and one server
/// data segment dropped at seed-chosen ordinals.
core::Testbed::Config testbed_config(std::uint64_t scenario_seed) {
  core::Testbed::Config tc;
  tc.seed = scenario_seed;
  tc.tcp.timestamps = true;
  sim::Rng rng{scenario_seed ^ 0xd809ULL};
  const auto first = static_cast<std::uint64_t>(rng.uniform_int(2, 12));
  const auto second = first + static_cast<std::uint64_t>(rng.uniform_int(3, 15));
  net::FaultPlan to_server;
  to_server.drop_nth_data_segment(first).drop_nth_data_segment(second);
  tc.faults_to_server = to_server;
  net::FaultPlan from_server;
  from_server.drop_nth_data_segment(
      static_cast<std::uint64_t>(rng.uniform_int(20, 400)));
  tc.faults_from_server = from_server;
  return tc;
}

/// Drive the HTTP and WebSocket volleys to completion (or a horizon).
int drive_traffic(core::Testbed& bed) {
  sim::Simulation& sim = bed.sim();
  const std::string body(kBodyBytes, 'b');
  bed.web_server().route("GET", "/bulk", [body](const http::HttpRequest&) {
    return http::HttpResponse::make(200, body);
  });
  const sim::Duration think = sim::Duration::millis(5);

  int completed = 0;
  http::HttpClient client{bed.client()};
  bool http_done = false;
  // The chain re-arms through a raw self-pointer; `fire` outlives the drive
  // loop that runs every link of it.
  auto fire = std::make_unique<std::function<void(int)>>();
  *fire = [&, self = fire.get()](int remaining) {
    if (remaining == 0) {
      http_done = true;
      client.close_all();
      return;
    }
    http::HttpRequest req;
    req.target = "/bulk";
    client.request(bed.http_endpoint(), req,
                   [&, self, remaining](http::HttpResponse rsp,
                                        http::HttpClient::TransferInfo) {
                     if (rsp.status == 200 && rsp.body.size() == kBodyBytes) {
                       ++completed;
                     }
                     sim.scheduler().schedule_after(
                         think, [self, remaining] { (*self)(remaining - 1); });
                   });
  };

  ws::WebSocketClient ws_client{bed.client()};
  std::shared_ptr<ws::WebSocketConnection> ws_conn;
  int echoes = 0;
  ws_client.connect(bed.ws_endpoint(), "/echo",
                    [&](std::shared_ptr<ws::WebSocketConnection> conn) {
                      ws_conn = conn;
                      ws::WebSocketConnection::Callbacks cbs;
                      cbs.on_message = [&](const ws::MessageAssembler::Message&) {
                        ++completed;
                        if (++echoes >= kWsMessages) return;
                        sim.scheduler().schedule_after(think, [&] {
                          ws_conn->send_text("bulk-echo");
                        });
                      };
                      conn->set_callbacks(std::move(cbs));
                      conn->send_text("bulk-echo");
                    });
  (*fire)(kExchanges);

  const sim::TimePoint horizon = sim.now() + sim::Duration::seconds(60);
  while (sim.now().ns_since_epoch() < horizon.ns_since_epoch() &&
         !(http_done && echoes >= kWsMessages)) {
    sim.scheduler().run_until(sim.now() + sim::Duration::millis(100));
  }
  if (ws_conn) ws_conn->close();
  // Drain teardown (FINs, delayed ACKs) so the capture ends cleanly.
  sim.scheduler().run_until(sim.now() + sim::Duration::seconds(1));
  return completed;
}

Scenario run_scenario(std::uint64_t scenario_seed, std::uint64_t unit) {
  Scenario out;
  std::optional<core::Testbed> bed;
  {
    SpanScope s{"testbed.ctor", unit};
    bed.emplace(testbed_config(scenario_seed));
  }
  {
    SpanScope s{"passive.drive", unit};
    out.completed = drive_traffic(*bed);
  }
  const net::PacketCapture& cap = bed->client().capture();
  out.packets = cap.size();

  passive::PassiveRttEstimator live;
  {
    SpanScope s{"passive.live", unit};
    live.consume(cap);
  }
  {
    SpanScope s{"passive.report", unit};
    out.report = live.report_json("passive_bulk");
  }
  std::stringstream pcap;
  {
    SpanScope s{"pcap.write", unit};
    net::PcapWriter::write(cap, pcap);
  }
  std::optional<net::PcapReader::Result> parsed;
  {
    SpanScope s{"pcap.read", unit};
    parsed.emplace(net::PcapReader::read(pcap));
  }
  if (!parsed->ok() || parsed->records.size() != cap.size()) {
    out.problem = "pcap re-read returned " +
                  std::to_string(parsed->records.size()) + " of " +
                  std::to_string(cap.size()) + " records";
    return out;
  }
  passive::PassiveRttEstimator offline;
  {
    SpanScope s{"passive.offline", unit};
    offline.consume(parsed->records);
  }
  std::string offline_report;
  {
    SpanScope s{"passive.report", unit};
    offline_report = offline.report_json("passive_bulk");
  }
  if (offline_report != out.report) {
    out.problem = "offline pcap report differs from the live tap's";
  } else if (live.counters().samples == 0 ||
             live.counters().retransmit_poisoned == 0) {
    out.problem = "scenario produced no samples or no poisoned anchors";
  }
  return out;
}

class PassiveBulk final : public Workload {
 public:
  GroupResult run(std::uint64_t seed, std::uint64_t index) override {
    GroupResult g;
    std::string reports;
    for (int j = 0; j < kScenariosPerGroup; ++j) {
      const Clock::time_point t0 = Clock::now();
      const Scenario s = run_scenario(
          mix64(seed) + index * kScenariosPerGroup + static_cast<std::uint64_t>(j),
          index);
      g.batch_ms.push_back(ms_between(t0, Clock::now()));
      g.units += s.packets;
      g.sim_attempted += kExchanges + kWsMessages;
      g.sim_failed += static_cast<std::uint64_t>(kExchanges + kWsMessages -
                                                 s.completed);
      if (!s.problem.empty()) g.problem = s.problem;
      reports += s.report;
    }
    g.fingerprint = fnv1a(reports);
    return g;
  }

  GroupResult run_traced(std::uint64_t seed, std::uint64_t index,
                         LayerExtras* extras) override {
    SpanScope group_span{"scenarios", index};
    GroupResult g = run(seed, index);
    extras->captured_packets += g.units;
    return g;
  }
};

}  // namespace

std::unique_ptr<Workload> make_passive_bulk() {
  return std::make_unique<PassiveBulk>();
}

}  // namespace perfbench
