// campaign_lossy: a population campaign on a fixed pool of 4 workers —
// 64 shards, one repetition per client, the default lognormal-RTT and
// bandwidth-tier population with 30% of clients on a 2%-loss link. One
// group is one campaign; consecutive groups use consecutive campaign
// seeds. Unit: one client; batch: one shard.
#include <algorithm>
#include <optional>

#include "common.h"
#include "core/campaign.h"
#include "core/experiment.h"
#include "sim/arena.h"
#include "sim/trace.h"

namespace perfbench {
namespace {

using namespace bnm;

constexpr int kWorkers = 4;
constexpr int kShards = 64;
constexpr std::uint64_t kClients = 64 * 64;

core::CampaignSpec campaign_spec(std::uint64_t campaign_seed) {
  core::CampaignSpec spec;
  spec.seed = campaign_seed;
  spec.clients = kClients;
  spec.shards = kShards;
  spec.runs_per_client = 1;
  spec.lossy_fraction = 0.3;
  spec.loss_probability = 0.02;
  return spec;
}

std::uint64_t group_seed(std::uint64_t seed, std::uint64_t index) {
  return mix64(seed) + index;
}

/// Failure accounting and the output checks that need no fingerprint.
void finish_group(const core::CampaignSpec& spec,
                  const core::CampaignResult& r, GroupResult& g) {
  const core::CampaignAggregate& agg = r.aggregate;
  const auto runs = static_cast<std::uint64_t>(spec.runs_per_client);
  g.units = spec.clients;
  g.sim_attempted = spec.clients * runs;
  g.sim_failed = agg.failed_clients * runs;
  for (const core::MethodAggregate& m : agg.methods) {
    g.sim_failed += m.timeouts + m.transport_errors + m.degraded;
  }
  if (agg.clients + agg.failed_clients != spec.clients) {
    g.problem = "campaign folded " + std::to_string(agg.clients) + " + " +
                std::to_string(agg.failed_clients) + " failed of " +
                std::to_string(spec.clients) + " clients";
  }
  if (r.cancelled || r.shards_run != r.shards) {
    g.problem = "campaign did not run every shard";
  }
  g.fingerprint = fnv1a(core::campaign_report_json(spec, r));
}

struct PoolRun {
  core::CampaignResult result;
  double wall_ms = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> shard_ns;  ///< offsets
};

PoolRun run_pool(const core::CampaignSpec& spec) {
  sim::Trace trace;
  trace.set_enabled(true);
  core::CampaignOptions options;
  options.jobs = kWorkers;
  options.trace = &trace;
  PoolRun out;
  const Clock::time_point started = Clock::now();
  out.result = core::run_campaign(spec, options);
  out.wall_ms = ms_between(started, Clock::now());
  for (const sim::TraceRecord& rec : trace.records()) {
    if (rec.kind != sim::TraceEventKind::kSpan || rec.component != "campaign") {
      continue;
    }
    const std::int64_t start = rec.at.ns_since_epoch();
    out.shard_ns.emplace_back(start, start + rec.duration.ns());
  }
  return out;
}

class CampaignLossy final : public Workload {
 public:
  bool serial() const override { return false; }

  GroupResult run(std::uint64_t seed, std::uint64_t index) override {
    const core::CampaignSpec spec = campaign_spec(group_seed(seed, index));
    const PoolRun pool = run_pool(spec);
    GroupResult g;
    for (const auto& [a, b] : pool.shard_ns) {
      g.batch_ms.push_back(static_cast<double>(b - a) / 1e6);
    }
    finish_group(spec, pool.result, g);
    return g;
  }

  GroupResult run_traced(std::uint64_t seed, std::uint64_t index,
                         LayerExtras* extras) override {
    const core::CampaignSpec spec = campaign_spec(group_seed(seed, index));
    GroupResult g;
    SpanScope group_span{"campaign", index};
    std::optional<PoolRun> pool;
    {
      SpanScope s{"campaign.run", index};
      pool.emplace(run_pool(spec));
      // The engine's shard spans start at its own epoch, a few µs after
      // the call; they are mapped onto the call's start.
      const std::int64_t base = now_ns() - static_cast<std::int64_t>(
                                               pool->wall_ms * 1e6);
      for (const auto& [a, b] : pool->shard_ns) {
        recorder().add("shard", base + a, base + b, index);
        extras->pool_busy_ns += static_cast<double>(b - a);
        g.batch_ms.push_back(static_cast<double>(b - a) / 1e6);
      }
      extras->pool_capacity_ns += kWorkers * pool->wall_ms * 1e6;
    }
    SpanScope report_span{"core.report", index};
    finish_group(spec, pool->result, g);
    return g;
  }

  /// Composed at one worker: CampaignSampler::client_config, then
  /// Experiment construct and run, then CampaignAggregate::fold per
  /// client, and one merge per shard — run_campaign's serial loop.
  std::optional<GroupResult> compose(std::uint64_t seed, std::uint64_t index,
                                     LayerExtras* extras) override {
    const core::CampaignSpec spec = campaign_spec(group_seed(seed, index));
    GroupResult g;
    SpanScope group_span{"campaign.composed", index};
    const core::CampaignSampler sampler{spec};
    const std::uint64_t shards =
        std::min<std::uint64_t>(static_cast<std::uint64_t>(spec.shards),
                                spec.clients);
    core::CampaignResult result;
    result.aggregate =
        core::CampaignAggregate{spec.grid, sampler.profile_count()};
    result.profile_labels = sampler.profile_labels();
    result.shards = shards;
    sim::Arena arena;
    sim::ArenaScope scope{&arena};
    for (std::uint64_t shard = 0; shard < shards; ++shard) {
      SpanScope shard_span{"shard", index};
      core::CampaignAggregate agg{spec.grid, sampler.profile_count()};
      const std::uint64_t first = spec.clients * shard / shards;
      const std::uint64_t last = spec.clients * (shard + 1) / shards;
      for (std::uint64_t client = first; client < last; ++client) {
        std::size_t profile_index = 0;
        std::optional<core::ExperimentConfig> cfg;
        {
          SpanScope s{"campaign.config", index};
          cfg.emplace(sampler.client_config(client, &profile_index));
        }
        try {
          std::optional<core::Experiment> experiment;
          {
            SpanScope s{"experiment.ctor", index};
            experiment.emplace(std::move(*cfg));
          }
          std::optional<core::OverheadSeries> series;
          {
            SpanScope s{"experiment.run", index};
            series.emplace(experiment->run());
          }
              SpanScope s{"campaign.fold", index};
          agg.fold(*series, profile_index, spec.min_rtt_window);
        } catch (const std::exception&) {
          ++agg.failed_clients;
        }
        arena.reset();
      }
      SpanScope s{"campaign.merge", index};
      result.aggregate.merge(agg);
      ++result.shards_run;
    }
    extras->sketch_bytes =
        std::max(extras->sketch_bytes,
                 static_cast<double>(result.aggregate.memory_bytes()));
    SpanScope report_span{"core.report", index};
    finish_group(spec, result, g);
    return g;
  }
};

}  // namespace

std::unique_ptr<Workload> make_campaign_lossy() {
  return std::make_unique<CampaignLossy>();
}

}  // namespace perfbench
