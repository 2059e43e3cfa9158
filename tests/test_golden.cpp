// Golden fingerprints: one committed 64-bit FNV-1a hash of the canonical
// report bytes per scenario (tests/golden_fingerprints.h). They are the
// oracle that lets the execution engines, checkpoint writers and hashers
// change shape: any refactor must reproduce every constant bit for bit, in
// every build type (plain, Release, ASan+UBSan), without a reference twin
// kept alive next to it.
//
//   ctest -L golden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/campaign.h"
#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/parallel_runner.h"
#include "core/testbed.h"
#include "golden_fingerprints.h"
#include "passive/rtt_estimator.h"

namespace bnm::core {
namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  Fnv h;
  h.bytes(bytes.data(), bytes.size());
  return h.value();
}

/// The paper's Figure-3 grid: every Table-2 (browser, OS) case times every
/// probe kind, at the ExperimentConfig defaults (50 runs, seed 42).
std::vector<ExperimentConfig> paper_matrix() {
  std::vector<ExperimentConfig> cells;
  for (const browser::BrowserOsCase& who : browser::paper_cases()) {
    for (const methods::ProbeKind kind : browser::all_probe_kinds()) {
      ExperimentConfig cfg;
      cfg.browser = who.browser;
      cfg.os = who.os;
      cfg.kind = kind;
      cells.push_back(cfg);
    }
  }
  return cells;
}

/// `tools/chaos_matrix --faults` at its defaults: 12 cells cycled over
/// eight method/case prototypes, 3 runs each, every third cell carrying a
/// loss plan toward the server and a blackhole from it.
std::vector<ExperimentConfig> chaos_fault_matrix() {
  using B = browser::BrowserId;
  using O = browser::OsId;
  using K = methods::ProbeKind;
  struct Proto {
    B b;
    O os;
    K k;
  };
  const Proto protos[] = {
      {B::kChrome, O::kUbuntu, K::kXhrGet},
      {B::kFirefox, O::kUbuntu, K::kDom},
      {B::kChrome, O::kWindows7, K::kJavaSocket},
      {B::kOpera, O::kUbuntu, K::kFlashGet},
      {B::kChrome, O::kUbuntu, K::kWebSocket},
      {B::kFirefox, O::kWindows7, K::kXhrPost},
      {B::kSafari, O::kWindows7, K::kJavaUdp},
      {B::kOpera, O::kWindows7, K::kFlashPost},
  };
  constexpr std::size_t kProtos = sizeof(protos) / sizeof(protos[0]);
  std::vector<ExperimentConfig> cells;
  for (std::size_t i = 0; i < 12; ++i) {
    const Proto& p = protos[i % kProtos];
    ExperimentConfig cfg;
    cfg.browser = p.b;
    cfg.os = p.os;
    cfg.kind = p.k;
    cfg.runs = 3;
    cfg.seed = 42 + i / kProtos;
    if (i % 3 == 1) {
      net::FaultPlan to_server;
      to_server.name = "chaos-to-server";
      to_server.loss_probability = 0.02;
      cfg.testbed.faults_to_server = to_server;
      net::FaultPlan from_server;
      from_server.name = "chaos-from-server";
      from_server.blackhole(sim::TimePoint::epoch() + sim::Duration::seconds(2),
                            sim::TimePoint::epoch() + sim::Duration::seconds(3));
      cfg.testbed.faults_from_server = from_server;
      cfg.http_request_timeout = sim::Duration::seconds(2);
      cfg.http_max_retries = 2;
    }
    cells.push_back(cfg);
  }
  return cells;
}

/// The campaign chaos gate's population: 2,000 clients, one run each, at
/// the CampaignSpec defaults otherwise.
CampaignSpec campaign_2k(int shards) {
  CampaignSpec spec;
  spec.clients = 2000;
  spec.runs_per_client = 1;
  spec.shards = shards;
  return spec;
}

/// The bytes of a checkpoint file, which is then removed.
std::string take_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return out.str();
}

std::string campaign_report(int shards, int jobs) {
  const CampaignSpec spec = campaign_2k(shards);
  CampaignOptions options;
  options.jobs = jobs;
  return campaign_report_json(spec, run_campaign(spec, options));
}

TEST(Golden, CheckpointKeysOfDefaultConfigs) {
  EXPECT_EQ(cell_config_hash_hex(ExperimentConfig{}),
            golden::kDefaultCellConfigHash);
  EXPECT_EQ(campaign_spec_hash_hex(CampaignSpec{}),
            golden::kDefaultCampaignSpecHash);
}

TEST(Golden, PaperMatrixSerialAndPooled) {
  const std::vector<ExperimentConfig> cells = paper_matrix();
  ASSERT_EQ(cells.size(), 88u);
  EXPECT_EQ(fnv1a(matrix_report_json(cells, run_matrix(cells, 1))),
            golden::kPaperMatrix);
  MatrixOptions pooled;
  pooled.jobs = 4;
  EXPECT_EQ(fnv1a(matrix_report_json(
                cells, run_matrix_checked(cells, pooled).series)),
            golden::kPaperMatrix);
}

TEST(Golden, ChaosFaultMatrix) {
  const std::vector<ExperimentConfig> cells = chaos_fault_matrix();
  MatrixOptions options;
  options.jobs = 2;
  const MatrixResult result = run_matrix_checked(cells, options);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(fnv1a(matrix_report_json(cells, result.series)),
            golden::kChaosFaultMatrix);
}

/// The final checkpoint of a clean `tools/chaos_matrix --faults` run.
TEST(Golden, ChaosFaultMatrixCheckpoint) {
  const std::string path = "bnm_golden_chaos_checkpoint.json";
  std::remove(path.c_str());
  const std::vector<ExperimentConfig> cells = chaos_fault_matrix();
  MatrixOptions options;
  options.jobs = 2;
  options.checkpoint.path = path;
  EXPECT_TRUE(run_matrix_checked(cells, options).ok());
  EXPECT_EQ(fnv1a(take_file(path)), golden::kChaosFaultMatrixCheckpoint);
}

/// The final checkpoint of the campaign chaos gate's clean run: 2,000
/// clients in 8 shards, serially.
TEST(Golden, Campaign2kEightShardCheckpoint) {
  const std::string path = "bnm_golden_campaign_checkpoint.json";
  std::remove(path.c_str());
  CampaignOptions options;
  options.jobs = 1;
  options.checkpoint = path;
  run_campaign(campaign_2k(/*shards=*/8), options);
  EXPECT_EQ(fnv1a(take_file(path)), golden::kCampaign2kCheckpoint);
}

TEST(Golden, Campaign2kOneShardSerial) {
  EXPECT_EQ(fnv1a(campaign_report(/*shards=*/1, /*jobs=*/1)),
            golden::kCampaign2k);
}

TEST(Golden, Campaign2kEightShardsOnFourJobs) {
  EXPECT_EQ(fnv1a(campaign_report(/*shards=*/8, /*jobs=*/4)),
            golden::kCampaign2k);
}

/// tools/passive_pcap's scenario at its defaults: 30 echoed 300-byte sends
/// with the 2nd and 5th data segments toward the server dropped.
TEST(Golden, PassiveLiveReport) {
  constexpr int kExchanges = 30;
  Testbed::Config tc;
  tc.seed = 20130;
  tc.tcp.timestamps = true;
  net::FaultPlan plan;
  plan.drop_nth_data_segment(2).drop_nth_data_segment(5);
  tc.faults_to_server = plan;
  Testbed bed{tc};

  std::shared_ptr<net::TcpConnection> conn;
  net::TcpCallbacks cbs;
  cbs.on_connect = [&] {
    for (int i = 0; i < kExchanges; ++i) {
      bed.sim().scheduler().schedule_after(
          sim::Duration::millis(120 * (i + 1)),
          [&] { conn->send(std::string(300, 'p')); });
    }
  };
  conn = bed.client().tcp_connect(bed.tcp_echo_endpoint(), std::move(cbs));
  bed.sim().scheduler().run_until(
      bed.sim().now() + sim::Duration::millis(120) * (kExchanges + 2) +
      sim::Duration::seconds(5));

  passive::PassiveRttEstimator live;
  live.consume(bed.client().capture());
  EXPECT_EQ(fnv1a(live.report_json("pcap-roundtrip")),
            golden::kPassiveLiveReport);
}

}  // namespace
}  // namespace bnm::core
