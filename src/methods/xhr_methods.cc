#include "methods/xhr_methods.h"

#include <memory>
#include <utility>

#include "browser/xhr.h"

namespace bnm::methods {

XhrMethod::XhrMethod(bool post) : post_{post} {
  info_.kind = post ? ProbeKind::kXhrPost : ProbeKind::kXhrGet;
  info_.name = post ? "XHR POST" : "XHR GET";
  info_.approach = "HTTP-based";
  info_.technology = "XHR";
  info_.availability = "Native";
  info_.verb = post ? "POST" : "GET";
  info_.same_origin = MethodInfo::SameOrigin::kYes;
  info_.example_tools = post
                            ? std::vector<std::string>{"Janc's methods"}
                            : std::vector<std::string>{"Speedof.me",
                                                       "BandwidthPlace",
                                                       "Janc's methods"};
}

namespace {
struct RunState {
  std::unique_ptr<browser::XmlHttpRequest> xhr;
  std::shared_ptr<sim::SmallFunction<void()>> measure;
  MethodRunResult result;
  sim::SmallFunction<void(MethodRunResult)> done;
  int measurement = 0;  // 1 or 2
  bool cancelled = false;
  bool settled = false;

  void cleanup() {
    xhr.reset();
    measure.reset();
  }
};
}  // namespace

void XhrMethod::run(const MethodContext& ctx,
                    sim::SmallFunction<void(MethodRunResult)> done) {
  browser::Browser& b = *ctx.browser;
  auto state = sim::make_arena_shared<RunState>();
  state->done = std::move(done);
  arm_cancel([w = std::weak_ptr<RunState>(state)] {
    if (auto s = w.lock()) {
      s->cancelled = true;
      s->cleanup();
    }
  });

  const ProbeKind kind = info_.kind;
  const bool perf_now = ctx.js_use_performance_now;
  b.load_container_page(kind, [this, &b, state, kind, perf_now] {
    if (state->cancelled) return;
    browser::TimingApi& clock =
        b.clock(b.profile().clock_for(kind, /*java_use_nanotime=*/false,
                                      perf_now));

    // The measurement code: instantiate the object once, use it twice.
    state->xhr = std::make_unique<browser::XmlHttpRequest>(b);
    auto* xhr = state->xhr.get();
    xhr->set_onerror([&b, state](const std::string& err) {
      if (state->result.ok || state->cancelled) return;
      state->result.error = err;
      finish_run(b.sim(), state);
    });

    state->measure = sim::make_arena_shared<sim::SmallFunction<void()>>();
    auto* measure = state->measure.get();
    *measure = [this, &b, state, xhr, &clock, measure] {
      ++state->measurement;
      ProbeTimestamps& ts = state->measurement == 1 ? state->result.m1
                                                    : state->result.m2;
      if (!xhr->open(post_ ? "POST" : "GET", post_ ? "/sink" : "/echo")) {
        state->result.error = "open failed";
        finish_run(b.sim(), state);
        return;
      }
      xhr->set_onreadystatechange([this, &b, state, xhr, &clock, measure, &ts] {
        if (xhr->ready_state() != browser::XmlHttpRequest::ReadyState::kDone) {
          return;
        }
        if (xhr->status() == 0) return;  // network error; onerror settles
        stamp(clock, b.sim(), ts.t_b_r, ts.true_recv);
        if (state->measurement == 1) {
          (*measure)();  // second probe immediately, reusing the object
        } else {
          state->result.ok = true;
          finish_run(b.sim(), state);
        }
      });
      // tB_s just before sending the request (Figure 1 protocol).
      stamp(clock, b.sim(), ts.t_b_s, ts.true_send);
      if (!xhr->send(post_ ? "x" : "")) {
        state->result.error = "send failed";
        finish_run(b.sim(), state);
      }
    };
    (*measure)();
  });
}

}  // namespace bnm::methods
