#include "core/testbed.h"

#include <utility>

namespace bnm::core {

namespace {
const net::IpAddress kClientIp{10, 0, 0, 1};
const net::IpAddress kServerIp{10, 0, 0, 2};
const net::IpAddress kBystanderIp{10, 0, 0, 3};
constexpr net::Port kTrafficSinkPort = 7;  // discard
}  // namespace

Testbed::Testbed(Config config) : config_{config}, sim_{config.seed} {
  // Client machine: capture tap (WinDump/tcpdump) with realistic
  // timestamping jitter.
  net::Host::Config cc;
  cc.name = "client";
  cc.ip = kClientIp;
  cc.capture.timestamp_jitter = config_.capture_jitter;
  cc.capture.name = "client/pcap";
  cc.tcp = config_.tcp;
  client_ = std::make_unique<net::Host>(sim_, cc);

  // Server machine: +50 ms egress delay via netem (Fig. 2 setup).
  net::Host::Config sc;
  sc.name = "server";
  sc.ip = kServerIp;
  // The paper captures on the client; far-end passive taps opt in.
  sc.capture.enabled = config_.capture_at_server;
  sc.capture.timestamp_jitter = config_.capture_jitter;
  sc.capture.name = "server/pcap";
  net::DelayEmulator::Config nm;
  nm.delay = config_.server_delay;
  nm.jitter = config_.server_jitter;
  nm.allow_reorder = config_.allow_reorder;
  nm.name = "server/netem";
  sc.egress_netem = nm;
  sc.tcp = config_.tcp;
  if (config_.faults_to_server) {
    auto plan = *config_.faults_to_server;
    if (plan.name == "faults") plan.name = "faults/to-server";
    sc.ingress_faults = std::move(plan);
  }
  if (config_.faults_from_server) {
    auto plan = *config_.faults_from_server;
    if (plan.name == "faults") plan.name = "faults/from-server";
    sc.egress_faults = std::move(plan);
  }
  server_ = std::make_unique<net::Host>(sim_, sc);

  // 100 Mbps links through a store-and-forward switch.
  net::Link::Config lc;
  lc.bandwidth_bps = config_.bandwidth_bps;
  lc.propagation = config_.link_propagation;
  lc.name = "link/client-switch";
  client_link_ = std::make_unique<net::Link>(sim_, lc);
  lc.name = "link/switch-server";
  lc.loss_probability = config_.link_loss_probability;
  server_link_ = std::make_unique<net::Link>(sim_, lc);
  lc.loss_probability = 0.0;

  switch_ = std::make_unique<net::SwitchFabric>(sim_);
  client_->attach_link(client_link_.get(), net::Link::Side::kA);
  const std::size_t p0 = switch_->add_port(client_link_.get(), net::Link::Side::kB);
  server_->attach_link(server_link_.get(), net::Link::Side::kB);
  const std::size_t p1 = switch_->add_port(server_link_.get(), net::Link::Side::kA);
  switch_->learn(kClientIp, p0);
  switch_->learn(kServerIp, p1);

  clocks_ = std::make_unique<browser::ClockSet>(config_.client_os,
                                                sim_.rng_for("client-clocks"));

  if (config_.cross_traffic_mbps > 0.0) {
    net::Host::Config bc;
    bc.name = "bystander";
    bc.ip = kBystanderIp;
    bc.capture.enabled = false;
    bystander_ = std::make_unique<net::Host>(sim_, bc);
    net::Link::Config blc;
    // A faster access link (GigE bystander on the Fast Ethernet LAN):
    // bursts arrive at the switch quicker than the server link drains
    // them, so contention actually queues on the measurement path.
    blc.bandwidth_bps = config_.bandwidth_bps * 10;
    blc.propagation = config_.link_propagation;
    blc.name = "link/bystander-switch";
    bystander_link_ = std::make_unique<net::Link>(sim_, blc);
    bystander_->attach_link(bystander_link_.get(), net::Link::Side::kA);
    const std::size_t pb =
        switch_->add_port(bystander_link_.get(), net::Link::Side::kB);
    switch_->learn(kBystanderIp, pb);

    net::CrossTrafficGenerator::Config tc;
    tc.average_mbps = config_.cross_traffic_mbps;
    tc.destination_port = kTrafficSinkPort;
    cross_traffic_ = std::make_unique<net::CrossTrafficGenerator>(
        sim_, *bystander_, net::Endpoint{kServerIp, kTrafficSinkPort}, tc);
    cross_traffic_->start();
  }

  start_services();
}

void Testbed::start_services() {
  http::WebServer::Config wc;
  wc.port = config_.http_port;
  web_ = std::make_unique<http::WebServer>(*server_, wc);

  // Raw TCP echo (the socket methods' probe target).
  server_->tcp_listen(config_.tcp_echo_port,
                      [](std::shared_ptr<net::TcpConnection> conn) {
                        net::TcpCallbacks cbs;
                        auto weak = std::weak_ptr<net::TcpConnection>(conn);
                        cbs.on_data = [weak](const net::Payload& d) {
                          if (auto c = weak.lock()) c->send(d);
                        };
                        cbs.on_close = [weak] {
                          if (auto c = weak.lock()) c->close();
                        };
                        conn->set_callbacks(std::move(cbs));
                      });

  // UDP echo.
  udp_echo_ = server_->udp_open(
      config_.udp_echo_port,
      [this](net::Endpoint src, const net::Payload& d) {
        udp_echo_->send_to(src, d);
      });

  // Discard sink for cross traffic.
  if (config_.cross_traffic_mbps > 0.0) {
    traffic_sink_ = server_->udp_open(
        kTrafficSinkPort,
        [](net::Endpoint, const net::Payload&) {});
  }

  // WebSocket echo.
  ws_echo_ = std::make_unique<ws::WebSocketServer>(
      *server_, config_.ws_port,
      [](std::shared_ptr<ws::WebSocketConnection> conn) {
        ws::WebSocketConnection::Callbacks cbs;
        auto weak = std::weak_ptr<ws::WebSocketConnection>(conn);
        cbs.on_message = [weak](const ws::MessageAssembler::Message& msg) {
          auto c = weak.lock();
          if (!c) return;
          // "PULL:<n>" requests an n-byte binary payload (throughput
          // probes); everything else echoes back unchanged.
          constexpr std::string_view kPull = "PULL:";
          const std::string_view text{
              reinterpret_cast<const char*>(msg.data.data()), msg.data.size()};
          if (text.starts_with(kPull)) {
            const std::string count{text.substr(kPull.size())};
            const auto n = static_cast<std::size_t>(
                std::strtoull(count.c_str(), nullptr, 10));
            c->send_binary(std::vector<std::uint8_t>(n, 0x42));
            return;
          }
          c->send_message(msg.type, msg.data.data(), msg.data.size());
        };
        conn->set_callbacks(std::move(cbs));
      });
}

net::Endpoint Testbed::http_endpoint() const {
  return {kServerIp, config_.http_port};
}
net::Endpoint Testbed::tcp_echo_endpoint() const {
  return {kServerIp, config_.tcp_echo_port};
}
net::Endpoint Testbed::udp_echo_endpoint() const {
  return {kServerIp, config_.udp_echo_port};
}
net::Endpoint Testbed::ws_endpoint() const {
  return {kServerIp, config_.ws_port};
}

std::unique_ptr<browser::Browser> Testbed::launch_browser(
    const browser::BrowserProfile& profile, std::uint64_t session_id) {
  return std::make_unique<browser::Browser>(*client_, *clocks_, profile,
                                            http_endpoint(), session_id);
}

}  // namespace bnm::core
