// Browser session facade: one launched browser with a rendering engine
// (event loop), an HTTP stack with a keep-alive pool, plugin runtimes, and
// access to the machine's clocks. Measurement-API shims (XHR, DOM,
// WebSocket, Flash, Java applet) hang off this object.
//
// A Browser corresponds to one page-load session in the paper's protocol:
// the automation script launches the browser, it fetches the container
// page (preparation phase), runs two measurements, and exits.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "browser/clock_set.h"
#include "browser/event_loop.h"
#include "browser/profile.h"
#include "http/client.h"
#include "net/host.h"

namespace bnm::browser {

class Browser {
 public:
  /// `clocks` outlives the browser (machine state). `origin` is the web
  /// server hosting the container page; the same-origin policy is enforced
  /// against it.
  Browser(net::Host& host, ClockSet& clocks, BrowserProfile profile,
          net::Endpoint origin, std::uint64_t session_id = 0);

  /// Preparation phase: fetch the container page for `kind` over the HTTP
  /// stack (establishing the pooled connection browsers later reuse).
  void load_container_page(ProbeKind kind, sim::SmallFunction<void()> on_loaded);

  // ---- services used by the API shims ----
  TimingApi& clock(ClockKind kind) { return clocks_.get(kind); }
  const BrowserProfile& profile() const { return profile_; }
  net::Endpoint origin() const { return origin_; }
  net::Host& host() { return host_; }
  http::HttpClient& http() { return http_; }
  EventLoop& event_loop() { return loop_; }
  sim::Simulation& sim() { return host_.sim(); }
  sim::Rng& rng() { return rng_; }

  /// Overhead samples. `first_use` adds (or, for Java, applies a signed)
  /// first-use delta on the pre-send side; totals clamp at >= 5 us.
  sim::Duration sample_pre_send(ProbeKind kind, bool first_use);
  /// `java_date_path`: the caller will read Date.getTime() through the Java
  /// plugin for this event (triggers the Safari plugin pathology; a
  /// nanoTime path stays clean, matching Table 4).
  sim::Duration sample_recv_dispatch(ProbeKind kind, bool first_use,
                                     bool java_date_path = false);

  /// Same-origin check for XHR (DOM, WebSocket and signed applets bypass
  /// it; Flash bypasses via crossdomain.xml).
  bool same_origin(net::Endpoint target) const { return target == origin_; }

  bool container_loaded() const { return container_loaded_; }

 private:
  /// Fetch the container page, then mark it loaded and run `done` after
  /// the engine's parse/render delay.
  template <typename Done>
  void fetch_container(http::HttpRequest req, Done done);

  net::Host& host_;
  ClockSet& clocks_;
  BrowserProfile profile_;
  net::Endpoint origin_;
  http::HttpClient http_;
  EventLoop loop_;
  sim::Rng rng_;
  bool container_loaded_ = false;
  /// The pending load's callback. Parked here instead of captured, so the
  /// HTTP and event-loop closures stay inline-sized; a second load issued
  /// while one is pending carries its own.
  sim::SmallFunction<void()> on_loaded_;
};

}  // namespace bnm::browser
