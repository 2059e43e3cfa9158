#include "methods/flash_methods.h"

#include <memory>
#include <utility>

#include "browser/flash.h"

namespace bnm::methods {

// ------------------------------------------------------------- Flash HTTP

FlashHttpMethod::FlashHttpMethod(bool post) : post_{post} {
  info_.kind = post ? ProbeKind::kFlashPost : ProbeKind::kFlashGet;
  info_.name = post ? "Flash POST" : "Flash GET";
  info_.approach = "HTTP-based";
  info_.technology = "Flash";
  info_.availability = "Plug-in";
  info_.verb = post ? "POST" : "GET";
  info_.same_origin = MethodInfo::SameOrigin::kYesBypassable;
  info_.example_tools =
      post ? std::vector<std::string>{"Speedtest.net", "InternetFrog"}
           : std::vector<std::string>{"Speedtest.net", "AuditMyPC",
                                      "Speedchecker", "Bandwidth Meter"};
}

namespace {
struct HttpRunState {
  std::unique_ptr<browser::FlashRuntime> runtime;
  std::unique_ptr<browser::FlashRuntime::URLLoader> loader;
  std::shared_ptr<sim::SmallFunction<void()>> measure;
  MethodRunResult result;
  sim::SmallFunction<void(MethodRunResult)> done;
  int measurement = 0;
  bool cancelled = false;
  bool settled = false;

  void cleanup() {
    loader.reset();
    runtime.reset();
    measure.reset();
  }
};
}  // namespace

void FlashHttpMethod::run(const MethodContext& ctx,
                          sim::SmallFunction<void(MethodRunResult)> done) {
  browser::Browser& b = *ctx.browser;
  auto state = sim::make_arena_shared<HttpRunState>();
  state->done = std::move(done);

  if (!b.profile().supports_flash) {
    state->result.error = "Flash not available";
    finish_run(b.sim(), state);
    return;
  }

  arm_cancel([w = std::weak_ptr<HttpRunState>(state)] {
    if (auto s = w.lock()) {
      s->cancelled = true;
      s->cleanup();
    }
  });

  const ProbeKind kind = info_.kind;
  b.load_container_page(kind, [this, &b, state, kind] {
    if (state->cancelled) return;
    browser::TimingApi& clock = b.clock(b.profile().clock_for(kind, false));
    state->runtime = std::make_unique<browser::FlashRuntime>(b);
    state->loader =
        std::make_unique<browser::FlashRuntime::URLLoader>(*state->runtime);
    auto* loader = state->loader.get();

    state->measure = sim::make_arena_shared<sim::SmallFunction<void()>>();
    auto* measure = state->measure.get();
    *measure = [this, &b, state, loader, &clock, measure] {
      ++state->measurement;
      ProbeTimestamps& ts =
          state->measurement == 1 ? state->result.m1 : state->result.m2;
      loader->set_on_complete([&b, state, &clock, measure, &ts](
                                  int, const std::string&) {
        stamp(clock, b.sim(), ts.t_b_r, ts.true_recv);
        if (state->measurement == 1) {
          (*measure)();
        } else {
          state->result.ok = true;
          finish_run(b.sim(), state);
        }
      });
      loader->set_on_error([&b, state](const std::string& err) {
        state->result.error = err;
        finish_run(b.sim(), state);
      });
      stamp(clock, b.sim(), ts.t_b_s, ts.true_send);
      loader->load(post_ ? "POST" : "GET", post_ ? "/sink" : "/echo",
                   post_ ? "x" : "");
    };
    (*measure)();
  });
}

// ----------------------------------------------------------- Flash socket

FlashSocketMethod::FlashSocketMethod() {
  info_.kind = ProbeKind::kFlashSocket;
  info_.name = "Flash TCP socket";
  info_.approach = "Socket-based";
  info_.technology = "Flash";
  info_.availability = "Plug-in";
  info_.verb = "TCP";
  info_.same_origin = MethodInfo::SameOrigin::kYesBypassable;
  info_.example_tools = {"Speedtest.net"};
}

namespace {
struct SocketRunState {
  std::unique_ptr<browser::FlashRuntime> runtime;
  std::unique_ptr<browser::FlashRuntime::Socket> socket;
  std::shared_ptr<sim::SmallFunction<void()>> measure;
  MethodRunResult result;
  sim::SmallFunction<void(MethodRunResult)> done;
  int measurement = 0;
  bool cancelled = false;
  bool settled = false;

  void cleanup() {
    socket.reset();
    runtime.reset();
    measure.reset();
  }
};
}  // namespace

void FlashSocketMethod::run(const MethodContext& ctx,
                            sim::SmallFunction<void(MethodRunResult)> done) {
  browser::Browser& b = *ctx.browser;
  auto state = sim::make_arena_shared<SocketRunState>();
  state->done = std::move(done);

  if (!b.profile().supports_flash) {
    state->result.error = "Flash not available";
    finish_run(b.sim(), state);
    return;
  }

  arm_cancel([w = std::weak_ptr<SocketRunState>(state)] {
    if (auto s = w.lock()) {
      s->cancelled = true;
      s->cleanup();
    }
  });

  const net::Endpoint tcp_echo = ctx.tcp_echo;
  b.load_container_page(ProbeKind::kFlashSocket, [&b, state, tcp_echo] {
    if (state->cancelled) return;
    browser::TimingApi& clock =
        b.clock(b.profile().clock_for(ProbeKind::kFlashSocket, false));
    state->runtime = std::make_unique<browser::FlashRuntime>(b);
    state->socket =
        std::make_unique<browser::FlashRuntime::Socket>(*state->runtime);
    auto* sock = state->socket.get();

    state->measure = sim::make_arena_shared<sim::SmallFunction<void()>>();
    auto* measure = state->measure.get();
    *measure = [&b, state, sock, &clock, measure] {
      ++state->measurement;
      ProbeTimestamps& ts =
          state->measurement == 1 ? state->result.m1 : state->result.m2;
      sock->set_on_socket_data([&b, state, sock, &clock, measure, &ts](
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
      sock->write("PROBE-RTT-16byte");
    };

    sock->set_on_error([&b, state](const std::string& err) {
      state->result.error = err;
      finish_run(b.sim(), state);
    });
    // Preparation: cross-domain policy fetch + TCP connect both happen
    // before the first probe, so the measurement excludes them.
    sock->set_on_connect([measure] { (*measure)(); });
    sock->connect(tcp_echo);
  });
}

}  // namespace bnm::methods
