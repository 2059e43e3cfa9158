#include "methods/dom_method.h"

#include <memory>
#include <utility>

#include "browser/dom.h"

namespace bnm::methods {

DomMethod::DomMethod() {
  info_.kind = ProbeKind::kDom;
  info_.name = "DOM";
  info_.approach = "HTTP-based";
  info_.technology = "DOM";
  info_.availability = "Native";
  info_.verb = "GET";
  info_.same_origin = MethodInfo::SameOrigin::kNo;
  info_.example_tools = {"Janc's methods", "BandwidthPlace", "Wang's method"};
}

namespace {
struct RunState {
  std::unique_ptr<browser::DomElementLoader> loader;
  std::shared_ptr<sim::SmallFunction<void()>> measure;
  MethodRunResult result;
  sim::SmallFunction<void(MethodRunResult)> done;
  int measurement = 0;
  bool cancelled = false;
  bool settled = false;

  void cleanup() {
    loader.reset();
    measure.reset();
  }
};
}  // namespace

void DomMethod::run(const MethodContext& ctx,
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

  const bool perf_now = ctx.js_use_performance_now;
  b.load_container_page(ProbeKind::kDom, [&b, state, perf_now] {
    if (state->cancelled) return;
    browser::TimingApi& clock =
        b.clock(b.profile().clock_for(ProbeKind::kDom, false, perf_now));
    state->loader = std::make_unique<browser::DomElementLoader>(
        b, browser::DomElementLoader::Tag::kImg);
    auto* loader = state->loader.get();

    state->measure = sim::make_arena_shared<sim::SmallFunction<void()>>();
    auto* measure = state->measure.get();
    *measure = [&b, state, loader, &clock, measure] {
      ++state->measurement;
      ProbeTimestamps& ts =
          state->measurement == 1 ? state->result.m1 : state->result.m2;
      loader->set_onload([&b, state, &clock, measure, &ts] {
        stamp(clock, b.sim(), ts.t_b_r, ts.true_recv);
        if (state->measurement == 1) {
          (*measure)();
        } else {
          state->result.ok = true;
          finish_run(b.sim(), state);
        }
      });
      loader->set_onerror([&b, state](const std::string& err) {
        state->result.error = err;
        finish_run(b.sim(), state);
      });
      stamp(clock, b.sim(), ts.t_b_s, ts.true_send);
      // Cache-bust so the second insertion fetches over the network.
      loader->load("/echo?r=" + std::to_string(state->measurement));
    };
    (*measure)();
  });
}

}  // namespace bnm::methods
