#include "http/server.h"

#include <cstdlib>
#include <utility>

namespace bnm::http {

WebServer::WebServer(net::Host& host, Config config)
    : host_{host}, config_{std::move(config)} {
  install_default_routes();
  host_.tcp_listen(config_.port, [this](std::shared_ptr<net::TcpConnection> c) {
    on_accept(std::move(c));
  });
}

void WebServer::route(const std::string& method, const std::string& path,
                      Handler handler) {
  route(method, path, std::move(handler), /*replayable=*/false);
}

void WebServer::route(const std::string& method, const std::string& path,
                      Handler handler, bool replayable) {
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    Route& r = routes_[i];
    if (r.method == method && r.path == path) {
      r.handler = std::move(handler);
      r.replayable = replayable;
      std::erase_if(replays_, [i](const Replay& p) { return p.route == i; });
      return;
    }
  }
  routes_.push_back(Route{method, path, std::move(handler), replayable});
}

std::string WebServer::path_of(const std::string& target) {
  const auto q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

std::unordered_map<std::string, std::string> WebServer::parse_query(
    const std::string& target) {
  std::unordered_map<std::string, std::string> out;
  const auto q = target.find('?');
  if (q == std::string::npos) return out;
  std::string rest = target.substr(q + 1);
  std::size_t pos = 0;
  while (pos < rest.size()) {
    auto amp = rest.find('&', pos);
    if (amp == std::string::npos) amp = rest.size();
    const std::string kv = rest.substr(pos, amp - pos);
    const auto eq = kv.find('=');
    if (eq == std::string::npos) {
      out[kv] = "";
    } else {
      out[kv.substr(0, eq)] = kv.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return out;
}

std::string WebServer::container_page(const std::string& method) {
  // Mirrors the paper's PHP/HTML container pages: a page embedding the
  // measurement code for one method. The body content is representative,
  // not executable - the simulated browser runtime interprets the method
  // name, just as a real rendering engine would interpret the script.
  return "<!DOCTYPE html>\n"
         "<html><head><title>bnm delay measurement: " + method + "</title>\n"
         "<script type=\"text/javascript\" src=\"/measure/" + method + ".js\">"
         "</script></head>\n"
         "<body onload=\"runMeasurement('" + method + "')\">\n"
         "<div id=\"status\">measuring with " + method + "...</div>\n"
         "<div id=\"result\"></div>\n"
         "</body></html>\n";
}

void WebServer::install_default_routes() {
  route(
      "GET", "/",
      [](const HttpRequest& req) {
        const auto params = parse_query(req.target);
        const auto it = params.find("method");
        return HttpResponse::make(
            200, container_page(it == params.end() ? "xhr_get" : it->second),
            "text/html");
      },
      /*replayable=*/true);
  route(
      "GET", "/echo",
      [](const HttpRequest&) { return HttpResponse::make(200, "pong"); },
      /*replayable=*/true);
  route("POST", "/sink", [](const HttpRequest& req) {
    return HttpResponse::make(200, "got " + std::to_string(req.body.size()));
  });
  route("GET", "/payload", [](const HttpRequest& req) {
    const auto params = parse_query(req.target);
    std::size_t size = 1024;
    if (const auto it = params.find("size"); it != params.end()) {
      size = static_cast<std::size_t>(std::strtoull(it->second.c_str(), nullptr, 10));
    }
    std::string body(size, 'x');
    return HttpResponse::make(200, std::move(body),
                              "application/octet-stream");
  });
  route("GET", "/redirect", [](const HttpRequest& req) {
    const auto params = parse_query(req.target);
    const auto it = params.find("to");
    HttpResponse r = HttpResponse::make(302, "");
    r.headers.set("Location", it == params.end() ? "/echo" : it->second);
    return r;
  });
  route(
      "GET", "/crossdomain.xml",
      [](const HttpRequest&) {
        return HttpResponse::make(
            200,
            "<?xml version=\"1.0\"?>\n<cross-domain-policy>\n"
            "  <allow-access-from domain=\"*\" to-ports=\"*\"/>\n"
            "</cross-domain-policy>\n",
            "text/x-cross-domain-policy");
      },
      /*replayable=*/true);
}

void WebServer::on_accept(std::shared_ptr<net::TcpConnection> conn) {
  ++connections_accepted_;
  // Per-connection state dies with its connection, inside the testbed's
  // arena epoch.
  auto state = sim::make_arena_shared<ConnState>();
  state->conn = std::move(conn);
  net::TcpCallbacks cbs;
  cbs.on_data = [this, state](const net::Payload& bytes) {
    on_data(state, bytes);
  };
  cbs.on_close = [state] {
    // Peer closed; finish our side.
    state->conn->close();
  };
  state->conn->set_callbacks(std::move(cbs));
}

void WebServer::on_data(const std::shared_ptr<ConnState>& state,
                        const net::Payload& bytes) {
  if (state->closing) return;
  state->parser.feed(bytes);
  if (state->parser.failed()) {
    HttpResponse bad = HttpResponse::make(400, "bad request");
    bad.headers.set("Connection", "close");
    state->conn->send(bad.to_payload());
    state->conn->close();
    state->closing = true;
    return;
  }
  while (auto request = state->parser.take()) {
    dispatch(state, std::move(*request));
  }
}

void WebServer::dispatch(const std::shared_ptr<ConnState>& state,
                         HttpRequest request) {
  // The request waits in the connection state, so the think-time closure
  // is two pointers (a 152-byte request capture would spill to the heap).
  if (state->waiting) {
    state->backlog.push_back(std::move(request));
  } else {
    state->waiting = std::move(request);
  }
  host_.sim().scheduler().schedule_after(
      config_.think_time, [this, state] { respond(*state); });
}

void WebServer::respond(ConnState& state) {
  const HttpRequest req = std::move(*state.waiting);
  if (state.backlog.empty()) {
    state.waiting.reset();
  } else {
    state.waiting = std::move(state.backlog.front());
    state.backlog.erase(state.backlog.begin());
  }
  if (state.closing) return;
  const bool keep = req.wants_keep_alive();
  bool path_known = false;
  const Route* route = match(req, path_known);
  const std::size_t index =
      route != nullptr ? static_cast<std::size_t>(route - routes_.data()) : 0;
  const auto finish = [&](auto&& bytes) {
    ++requests_served_;
    state.conn->send(bytes);
    if (!keep) {
      state.conn->close();
      state.closing = true;
    }
  };
  if (route != nullptr && route->replayable) {
    for (const Replay& r : replays_) {
      if (r.route == index && r.keep_alive == keep && r.target == req.target) {
        finish(r.bytes);
        return;
      }
    }
  }
  HttpResponse resp =
      route != nullptr ? route->handler(req)
      : path_known     ? HttpResponse::make(405, "method not allowed")
                       : HttpResponse::make(404, "not found");
  resp.headers.set("Server", config_.server_header);
  if (!keep) resp.headers.set("Connection", "close");
  if (route != nullptr && route->replayable &&
      replays_.size() < kMaxReplays) {
    replays_.push_back(Replay{index, req.target, keep, resp.serialize()});
    finish(replays_.back().bytes);
    return;
  }
  finish(resp.to_payload());
}

const WebServer::Route* WebServer::match(const HttpRequest& request,
                                         bool& path_known) const {
  const std::string_view target = request.target;
  const std::string_view path = target.substr(0, target.find('?'));
  path_known = false;
  for (const Route& r : routes_) {
    if (r.path != path) continue;
    if (r.method == request.method) return &r;
    path_known = true;
  }
  return nullptr;
}

}  // namespace bnm::http
