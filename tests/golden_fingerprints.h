// Committed golden fingerprints (tests/test_golden.cpp): 64-bit FNV-1a of
// each canonical report's bytes, and the checkpoint keys of the default
// configs. One constant per scenario, valid in every build type. A change
// that moves any of them changes observable behaviour and must say so.
#pragma once

#include <cstdint>

namespace bnm::core::golden {

/// matrix_report_json over the 88-cell paper grid (50 runs, seed 42).
inline constexpr std::uint64_t kPaperMatrix = 0x72396b2ecb48f9f5ULL;
/// matrix_report_json over `tools/chaos_matrix --faults` (12 cells, 3 runs).
inline constexpr std::uint64_t kChaosFaultMatrix = 0x8f664970666bfc45ULL;
/// campaign_report_json over 2,000 clients at one run each, for any shard
/// layout and job count.
inline constexpr std::uint64_t kCampaign2k = 0xde1ba1863fd55d73ULL;
/// PassiveRttEstimator::report_json of `tools/passive_pcap`'s live tap.
inline constexpr std::uint64_t kPassiveLiveReport = 0xb0da83ae7d0d160cULL;

/// cell_config_hash_hex(ExperimentConfig{}): the matrix checkpoint key.
inline constexpr const char* kDefaultCellConfigHash = "5a363956fbfad1f9";
/// campaign_spec_hash_hex(CampaignSpec{}): the campaign checkpoint key.
inline constexpr const char* kDefaultCampaignSpecHash = "c99e35c248a86444";

}  // namespace bnm::core::golden
