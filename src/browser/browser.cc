#include "browser/browser.h"

#include <algorithm>
#include <utility>

namespace bnm::browser {

Browser::Browser(net::Host& host, ClockSet& clocks, BrowserProfile profile,
                 net::Endpoint origin, std::uint64_t session_id)
    : host_{host},
      clocks_{clocks},
      profile_{std::move(profile)},
      origin_{origin},
      http_{host},
      loop_{host.sim(), profile_.label()},
      rng_{host.sim()
               .rng_for("browser/" + profile_.label())
               .fork("session-" + std::to_string(session_id))} {}

void Browser::load_container_page(ProbeKind kind,
                                  sim::SmallFunction<void()> on_loaded) {
  http::HttpRequest req;
  req.method = "GET";
  req.target = std::string{"/?method="} + probe_kind_name(kind);
  req.headers.set("Host", origin_.to_string());
  req.headers.set("User-Agent", std::string{browser_name(profile_.which.browser)} +
                                    "/" + profile_.browser_version);
  if (on_loaded_) {
    fetch_container(std::move(req), std::move(on_loaded));
    return;
  }
  on_loaded_ = std::move(on_loaded);
  fetch_container(std::move(req), [this] {
    const sim::SmallFunction<void()> done = std::move(on_loaded_);
    done();
  });
}

template <typename Done>
void Browser::fetch_container(http::HttpRequest req, Done done) {
  http_.request(origin_, std::move(req),
                [this, done = std::move(done)](
                    http::HttpResponse, http::HttpClient::TransferInfo) mutable {
                  // Parsing/rendering the page costs the engine a moment.
                  loop_.post(rng_.uniform_ms(1.0, 5.0),
                             [this, done = std::move(done)] {
                               container_loaded_ = true;
                               done();
                             });
                });
}

sim::Duration Browser::sample_pre_send(ProbeKind kind, bool first_use) {
  const OverheadModel m = profile_.overhead(kind);
  sim::Duration d = m.pre_send.sample(rng_);
  if (first_use) d += m.first_use.sample(rng_);
  return std::max(d, sim::Duration::micros(5));
}

sim::Duration Browser::sample_recv_dispatch(ProbeKind kind, bool first_use,
                                            bool java_date_path) {
  const OverheadModel m = profile_.overhead(kind);
  sim::Duration d = m.recv_dispatch.sample(rng_);
  // Safari's broken Java plugin adds continuous extra latency on warm
  // Date-clock paths (§5 / Fig 4a); the nanoTime path is unaffected.
  if (!first_use && java_date_path && profile_.java_date_warm_noise) {
    d += profile_.java_date_warm_noise->sample(rng_);
  }
  return std::max(d, sim::Duration::micros(5));
}

}  // namespace bnm::browser
