#include "methods/java_methods.h"

#include <memory>
#include <utility>

#include "browser/java_applet.h"

namespace bnm::methods {

// -------------------------------------------------------------- Java HTTP

JavaHttpMethod::JavaHttpMethod(bool post) : post_{post} {
  info_.kind = post ? ProbeKind::kJavaPost : ProbeKind::kJavaGet;
  info_.name = post ? "Java applet POST" : "Java applet GET";
  info_.approach = "HTTP-based";
  info_.technology = "Java applet";
  info_.availability = "Plug-in";
  info_.verb = post ? "POST" : "GET";
  info_.same_origin = MethodInfo::SameOrigin::kYesBypassable;
  info_.example_tools = {};
}

namespace {
struct HttpRunState {
  std::unique_ptr<browser::JavaAppletRuntime> runtime;
  std::unique_ptr<browser::JavaAppletRuntime::UrlConnection> url;
  std::shared_ptr<sim::SmallFunction<void()>> measure;
  MethodRunResult result;
  sim::SmallFunction<void(MethodRunResult)> done;
  int measurement = 0;
  bool cancelled = false;
  bool settled = false;

  void cleanup() {
    url.reset();
    runtime.reset();
    measure.reset();
  }
};
}  // namespace

void JavaHttpMethod::run(const MethodContext& ctx,
                         sim::SmallFunction<void(MethodRunResult)> done) {
  browser::Browser& b = *ctx.browser;
  auto state = sim::make_arena_shared<HttpRunState>();
  state->done = std::move(done);

  if (!b.profile().supports_java) {
    state->result.error = "Java not available";
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
  // Closures capture the context fields they use, not the whole context,
  // so they stay inside SmallFunction's inline storage.
  const browser::JavaAppletRuntime::Options options{ctx.java_use_nanotime,
                                                    ctx.java_via_appletviewer};
  b.load_container_page(kind, [this, &b, state, options] {
    if (state->cancelled) return;
    state->runtime = std::make_unique<browser::JavaAppletRuntime>(b, options);
    browser::TimingApi& clock = state->runtime->timing();
    state->url = std::make_unique<browser::JavaAppletRuntime::UrlConnection>(
        *state->runtime);
    auto* url = state->url.get();

    state->measure = sim::make_arena_shared<sim::SmallFunction<void()>>();
    auto* measure = state->measure.get();
    *measure = [this, &b, state, url, &clock, measure] {
      ++state->measurement;
      ProbeTimestamps& ts =
          state->measurement == 1 ? state->result.m1 : state->result.m2;
      url->set_on_complete([&b, state, &clock, measure, &ts](
                               int, const std::string&) {
        stamp(clock, b.sim(), ts.t_b_r, ts.true_recv);
        if (state->measurement == 1) {
          (*measure)();
        } else {
          state->result.ok = true;
          finish_run(b.sim(), state);
        }
      });
      url->set_on_error([&b, state](const std::string& err) {
        state->result.error = err;
        finish_run(b.sim(), state);
      });
      stamp(clock, b.sim(), ts.t_b_s, ts.true_send);
      url->load(post_ ? "POST" : "GET", post_ ? "/sink" : "/echo",
                post_ ? "x" : "");
    };
    (*measure)();
  });
}

// ------------------------------------------------------------ Java socket

JavaSocketMethod::JavaSocketMethod(bool udp) : udp_{udp} {
  info_.kind = udp ? ProbeKind::kJavaUdp : ProbeKind::kJavaSocket;
  info_.name = udp ? "Java applet UDP socket" : "Java applet TCP socket";
  info_.approach = "Socket-based";
  info_.technology = "Java applet";
  info_.availability = "Plug-in";
  info_.verb = udp ? "UDP" : "TCP";
  info_.same_origin = MethodInfo::SameOrigin::kNo;
  info_.measures_loss = udp;
  info_.example_tools = {"Netalyzr", "HMN", "JavaNws", "Pingtest.net", "NDT",
                         "AuditMyPC (Java)"};
}

namespace {
struct SocketRunState {
  std::unique_ptr<browser::JavaAppletRuntime> runtime;
  std::unique_ptr<browser::JavaAppletRuntime::Socket> tcp;
  std::unique_ptr<browser::JavaAppletRuntime::DatagramSocket> udp;
  std::shared_ptr<sim::SmallFunction<void()>> measure;
  MethodRunResult result;
  sim::SmallFunction<void(MethodRunResult)> done;
  int measurement = 0;
  bool cancelled = false;
  bool settled = false;

  void cleanup() {
    tcp.reset();
    udp.reset();
    runtime.reset();
    measure.reset();
  }
};
}  // namespace

void JavaSocketMethod::run(const MethodContext& ctx,
                           sim::SmallFunction<void(MethodRunResult)> done) {
  browser::Browser& b = *ctx.browser;
  auto state = sim::make_arena_shared<SocketRunState>();
  state->done = std::move(done);

  if (!b.profile().supports_java) {
    state->result.error = "Java not available";
    finish_run(b.sim(), state);
    return;
  }

  arm_cancel([w = std::weak_ptr<SocketRunState>(state)] {
    if (auto s = w.lock()) {
      s->cancelled = true;
      s->cleanup();
    }
  });

  // Closures capture the context fields they use, not the whole context,
  // so they stay inside SmallFunction's inline storage.
  const browser::JavaAppletRuntime::Options options{ctx.java_use_nanotime,
                                                    ctx.java_via_appletviewer};
  const sim::Duration probe_timeout = ctx.probe_timeout;
  const net::Endpoint udp_echo = ctx.udp_echo;
  const net::Endpoint tcp_echo = ctx.tcp_echo;
  b.load_container_page(info_.kind, [this, &b, state, options, probe_timeout,
                                     udp_echo, tcp_echo] {
    if (state->cancelled) return;
    state->runtime = std::make_unique<browser::JavaAppletRuntime>(b, options);
    browser::TimingApi& clock = state->runtime->timing();

    state->measure = sim::make_arena_shared<sim::SmallFunction<void()>>();
    auto* measure = state->measure.get();

    if (udp_) {
      state->udp =
          std::make_unique<browser::JavaAppletRuntime::DatagramSocket>(
              *state->runtime);
      auto* sock = state->udp.get();
      if (!probe_timeout.is_zero()) {
        // UDP has no failure signal: a lost probe or reply would block the
        // applet's receive() forever without SO_TIMEOUT.
        sock->set_so_timeout(probe_timeout);
        sock->set_on_timeout([&b, state, sock] {
          if (state->result.ok || state->cancelled) return;
          state->result.error = "receive timed out";
          sock->close();
          finish_run(b.sim(), state);
        });
      }
      *measure = [&b, state, sock, &clock, measure, udp_echo] {
        ++state->measurement;
        ProbeTimestamps& ts =
            state->measurement == 1 ? state->result.m1 : state->result.m2;
        sock->set_on_receive([&b, state, sock, &clock, measure, &ts](
                                 net::Endpoint, const std::string&) {
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
        sock->send_to(udp_echo, "PROBE-RTT-16byte");
      };
      (*measure)();
      return;
    }

    state->tcp =
        std::make_unique<browser::JavaAppletRuntime::Socket>(*state->runtime);
    auto* sock = state->tcp.get();
    *measure = [&b, state, sock, &clock, measure] {
      ++state->measurement;
      ProbeTimestamps& ts =
          state->measurement == 1 ? state->result.m1 : state->result.m2;
      sock->set_on_data([&b, state, sock, &clock, measure, &ts](
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
    sock->set_on_error([&b, state, sock](const std::string& err) {
      if (state->result.ok || state->cancelled) return;
      state->result.error = err;
      sock->close();
      finish_run(b.sim(), state);
    });
    sock->set_on_connect([measure] { (*measure)(); });
    sock->connect(tcp_echo);
  });
}

}  // namespace bnm::methods
