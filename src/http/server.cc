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
  for (Route& r : routes_) {
    if (r.method == method && r.path == path) {
      r.handler = std::move(handler);
      return;
    }
  }
  routes_.push_back(Route{method, path, std::move(handler)});
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
  route("GET", "/", [](const HttpRequest& req) {
    const auto params = parse_query(req.target);
    const auto it = params.find("method");
    return HttpResponse::make(
        200, container_page(it == params.end() ? "xhr_get" : it->second),
        "text/html");
  });
  route("GET", "/echo", [](const HttpRequest&) {
    return HttpResponse::make(200, "pong");
  });
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
  route("GET", "/crossdomain.xml", [](const HttpRequest&) {
    return HttpResponse::make(
        200,
        "<?xml version=\"1.0\"?>\n<cross-domain-policy>\n"
        "  <allow-access-from domain=\"*\" to-ports=\"*\"/>\n"
        "</cross-domain-policy>\n",
        "text/x-cross-domain-policy");
  });
}

void WebServer::on_accept(std::shared_ptr<net::TcpConnection> conn) {
  ++connections_accepted_;
  auto state = std::make_shared<ConnState>();
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
    state->conn->send(bad.serialize());
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
  host_.sim().scheduler().schedule_after(
      config_.think_time, [this, state, req = std::move(request)] {
        if (state->closing) return;
        HttpResponse resp = handle(req);
        resp.headers.set("Server", config_.server_header);
        const bool keep = req.wants_keep_alive();
        if (!keep) resp.headers.set("Connection", "close");
        ++requests_served_;
        state->conn->send(resp.serialize());
        if (!keep) {
          state->conn->close();
          state->closing = true;
        }
      });
}

HttpResponse WebServer::handle(const HttpRequest& request) {
  const std::string_view target = request.target;
  const std::string_view path = target.substr(0, target.find('?'));
  bool path_known = false;
  for (const Route& r : routes_) {
    if (r.path != path) continue;
    if (r.method == request.method) return r.handler(request);
    path_known = true;
  }
  if (path_known) return HttpResponse::make(405, "method not allowed");
  return HttpResponse::make(404, "not found");
}

}  // namespace bnm::http
