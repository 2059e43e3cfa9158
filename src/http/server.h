// Simulated web server (the testbed's Apache): routes, keep-alive handling,
// per-request application think time, and the endpoints the measurement
// container pages use.
//
// Built-in routes:
//   GET  /               container page for a measurement method (?method=)
//   GET  /echo           tiny response ("pong"), the RTT probe target
//   GET  /payload?size=N N bytes of data (throughput experiments)
//   POST /sink           accepts any body, tiny response
//   GET  /crossdomain.xml  Flash cross-domain policy (Section 2.1)
//
// The static routes (/, /echo, /crossdomain.xml) answer with bytes that
// depend only on the request target and the connection mode, so each
// distinct answer is serialized once per server and replayed after that.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/message.h"
#include "http/parser.h"
#include "net/host.h"

namespace bnm::http {

class WebServer {
 public:
  struct Config {
    net::Port port = 80;
    /// Application-level processing time per request (distinct from the
    /// testbed's 50 ms netem delay, which lives on the host's egress).
    sim::Duration think_time = sim::Duration::micros(200);
    std::string server_header = "Apache/2.2 (Ubuntu) [simulated]";
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  WebServer(net::Host& host, Config config);

  /// Install or replace a route. Exact path match on the part before '?'.
  void route(const std::string& method, const std::string& path, Handler handler);

  std::uint64_t requests_served() const { return requests_served_; }
  std::uint64_t connections_accepted() const { return connections_accepted_; }

  net::Host& host() { return host_; }
  const Config& config() const { return config_; }

  /// Container page HTML for a measurement method name (what the browser
  /// downloads in the preparation phase).
  static std::string container_page(const std::string& method);

  /// Parse "?k=v&k2=v2" query parameters from a target.
  static std::unordered_map<std::string, std::string> parse_query(
      const std::string& target);
  static std::string path_of(const std::string& target);

 private:
  struct Route {
    std::string method;
    std::string path;
    Handler handler;
    /// The handler's response is a function of the target alone (a
    /// built-in static route): serialized responses may be replayed.
    bool replayable = false;
  };

  /// One serialized response of a replayable route.
  struct Replay {
    std::size_t route;  ///< index into routes_
    std::string target;
    bool keep_alive;
    std::string bytes;
  };
  /// Distinct targets remembered per server; beyond this, responses are
  /// built per request as for any other route.
  static constexpr std::size_t kMaxReplays = 64;

  struct ConnState {
    std::shared_ptr<net::TcpConnection> conn;
    RequestParser parser;
    /// Requests parsed and waiting out the think time, oldest first. One
    /// at a time unless the client pipelines; the overflow is `backlog`.
    std::optional<HttpRequest> waiting;
    std::vector<HttpRequest> backlog;
    bool closing = false;
  };

  void install_default_routes();
  void route(const std::string& method, const std::string& path,
             Handler handler, bool replayable);
  void on_accept(std::shared_ptr<net::TcpConnection> conn);
  void on_data(const std::shared_ptr<ConnState>& state,
               const net::Payload& bytes);
  void dispatch(const std::shared_ptr<ConnState>& state, HttpRequest request);
  /// Answer the oldest waiting request of `state` (its think time is over).
  void respond(ConnState& state);
  /// The route for `request`, or nullptr; `path_known` tells a 405 from a
  /// 404 when there is none.
  const Route* match(const HttpRequest& request, bool& path_known) const;

  net::Host& host_;
  Config config_;
  std::vector<Route> routes_;  // few enough that a scan beats hashing
  std::vector<Replay> replays_;
  std::uint64_t requests_served_ = 0;
  std::uint64_t connections_accepted_ = 0;
};

}  // namespace bnm::http
