#include "methods/websocket_method.h"

#include <memory>
#include <utility>

#include "browser/websocket_api.h"

namespace bnm::methods {

WebSocketMethod::WebSocketMethod() {
  info_.kind = ProbeKind::kWebSocket;
  info_.name = "WebSocket";
  info_.approach = "Socket-based";
  info_.technology = "WebSocket";
  info_.availability = "Native";
  info_.verb = "TCP";
  info_.same_origin = MethodInfo::SameOrigin::kNo;
  info_.example_tools = {};
}

namespace {
struct RunState {
  std::unique_ptr<browser::BrowserWebSocket> ws;
  std::shared_ptr<sim::SmallFunction<void()>> measure;
  MethodRunResult result;
  sim::SmallFunction<void(MethodRunResult)> done;
  int measurement = 0;
  bool cancelled = false;
  bool settled = false;

  void cleanup() {
    ws.reset();
    measure.reset();
  }
};
}  // namespace

void WebSocketMethod::run(const MethodContext& ctx,
                          sim::SmallFunction<void(MethodRunResult)> done) {
  browser::Browser& b = *ctx.browser;
  auto state = sim::make_arena_shared<RunState>();
  state->done = std::move(done);

  if (!b.profile().supports_websocket) {
    state->result.error = "WebSocket not supported (Table 2)";
    finish_run(b.sim(), state);
    return;
  }

  arm_cancel([w = std::weak_ptr<RunState>(state)] {
    if (auto s = w.lock()) {
      s->cancelled = true;
      s->cleanup();
    }
  });

  // The closure captures the context fields it uses, not the whole
  // context, so it stays inside SmallFunction's inline storage.
  const bool perf_now = ctx.js_use_performance_now;
  b.load_container_page(ProbeKind::kWebSocket, [&b, state, perf_now,
                                                server = ctx.ws_server,
                                                path = ctx.ws_path] {
    if (state->cancelled) return;
    browser::TimingApi& clock = b.clock(
        b.profile().clock_for(ProbeKind::kWebSocket, false, perf_now));
    // Preparation: the WebSocket handshake completes before any probe, so
    // the measurement never includes connection setup.
    state->ws = std::make_unique<browser::BrowserWebSocket>(b, server, path);
    auto* sock = state->ws.get();

    state->measure = sim::make_arena_shared<sim::SmallFunction<void()>>();
    auto* measure = state->measure.get();
    *measure = [&b, state, sock, &clock, measure] {
      ++state->measurement;
      ProbeTimestamps& ts =
          state->measurement == 1 ? state->result.m1 : state->result.m2;
      sock->set_onmessage([&b, state, sock, &clock, measure, &ts](
                              const std::string&) {
        stamp(clock, b.sim(), ts.t_b_r, ts.true_recv);
        if (state->measurement == 1) {
          (*measure)();
        } else {
          state->result.ok = true;
          sock->close();
          finish_run(b.sim(), state);
        }
      });
      stamp(clock, b.sim(), ts.t_b_s, ts.true_send);
      sock->send("PROBE-RTT-16byte");
    };

    sock->set_onerror([&b, state](const std::string& err) {
      if (state->result.ok || state->cancelled) return;
      state->result.error = err;
      finish_run(b.sim(), state);
    });
    sock->set_onclose([&b, state](std::uint16_t code) {
      // An abnormal close (1006: transport died) before the second probe
      // completes means the run cannot finish - surface it as an error.
      if (state->result.ok || state->cancelled) return;
      state->result.error = "connection closed (" + std::to_string(code) + ")";
      finish_run(b.sim(), state);
    });
    sock->set_onopen([measure] { (*measure)(); });
  });
}

}  // namespace bnm::methods
