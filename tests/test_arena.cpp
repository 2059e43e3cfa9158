// Arena contract tests: alignment, chunk spill, reset()-and-reuse, the
// thread-local scope machinery, per-thread isolation under the matrix
// runner (per-worker arenas reproduce the serial results bit for bit) and
// publication of the arena.* registry counters. The report bytes of the
// arena-backed path itself are pinned by the golden fingerprints.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/parallel_runner.h"
#include "obs/metrics.h"
#include "sim/arena.h"

namespace bnm::sim {
namespace {

bool aligned_to(const void* p, std::size_t align) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

TEST(Arena, RespectsRequestedAlignment) {
  Arena arena;
  // Interleave odd sizes so the bump pointer lands misaligned between
  // requests; every allocation must still come back aligned.
  for (const std::size_t align : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8},
                                  std::size_t{16}, std::size_t{64}}) {
    arena.allocate(3, 1);  // deliberately skew the bump pointer
    void* p = arena.allocate(align * 2, align);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(aligned_to(p, align)) << "align=" << align;
  }
  EXPECT_GT(arena.allocations(), 0u);
  EXPECT_GT(arena.bytes_served(), 0u);
}

TEST(Arena, SpillsIntoNewChunksAndServesOversizedRequests) {
  Arena arena{/*chunk_bytes=*/1024};
  EXPECT_EQ(arena.chunk_count(), 0u);  // lazy: no chunk until first use

  // Fill past the first chunk; the arena must grow, never fail.
  std::vector<unsigned char*> blocks;
  for (int i = 0; i < 8; ++i) {
    auto* p = static_cast<unsigned char*>(arena.allocate(512, 16));
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xA5 + i, 512);  // every block must be writable
    blocks.push_back(p);
  }
  EXPECT_GE(arena.chunk_count(), 2u);

  // A request bigger than the chunk size gets its own dedicated chunk.
  auto* big = static_cast<unsigned char*>(arena.allocate(16 * 1024, 64));
  ASSERT_NE(big, nullptr);
  std::memset(big, 0x5A, 16 * 1024);

  // Earlier blocks survived the growth (chunks never move).
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    EXPECT_EQ(blocks[i][0], static_cast<unsigned char>(0xA5 + i));
    EXPECT_EQ(blocks[i][511], static_cast<unsigned char>(0xA5 + i));
  }
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_in_use());
  EXPECT_GE(arena.peak_bytes(), 16u * 1024u);
}

TEST(Arena, ResetRetainsChunksForReuse) {
  Arena arena{/*chunk_bytes=*/1024};
  for (int i = 0; i < 6; ++i) arena.allocate(512, 8);
  const std::size_t chunks_before = arena.chunk_count();
  const std::size_t reserved_before = arena.bytes_reserved();
  const std::uint64_t allocs_before = arena.allocations();
  ASSERT_GE(chunks_before, 2u);

  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.chunk_count(), chunks_before);      // nothing freed
  EXPECT_EQ(arena.bytes_reserved(), reserved_before);  // capacity retained

  // The next epoch is served from the retained chunks: same footprint.
  for (int i = 0; i < 6; ++i) arena.allocate(512, 8);
  EXPECT_EQ(arena.chunk_count(), chunks_before);
  EXPECT_EQ(arena.bytes_reserved(), reserved_before);
  EXPECT_EQ(arena.allocations(), allocs_before + 6);  // lifetime counter
}

TEST(Arena, ScopeInstallsRestoresAndNests) {
  ASSERT_EQ(Arena::current(), nullptr);  // tests run with no ambient scope
  Arena outer;
  {
    ArenaScope s1{outer};
    EXPECT_EQ(Arena::current(), &outer);
    {
      // nullptr scope = keep whatever is installed (the no-op form).
      ArenaScope s2{static_cast<Arena*>(nullptr)};
      EXPECT_EQ(Arena::current(), &outer);
    }
    EXPECT_EQ(Arena::current(), &outer);
    Arena inner;
    {
      ArenaScope s3{inner};
      EXPECT_EQ(Arena::current(), &inner);
    }
    EXPECT_EQ(Arena::current(), &outer);
  }
  EXPECT_EQ(Arena::current(), nullptr);
}

TEST(Arena, ThreadLocalScopesAreIsolated) {
  Arena main_arena;
  ArenaScope scope{main_arena};
  Arena* seen_on_thread = &main_arena;  // sentinel: must be overwritten
  std::thread t{[&] {
    // A fresh thread starts with no scope, regardless of the main thread's.
    seen_on_thread = Arena::current();
    Arena mine;
    ArenaScope s{mine};
    mine.allocate(64, 8);
    EXPECT_EQ(Arena::current(), &mine);
    EXPECT_EQ(mine.allocations(), 1u);
  }};
  t.join();
  EXPECT_EQ(seen_on_thread, nullptr);
  EXPECT_EQ(Arena::current(), &main_arena);  // untouched by the thread
  EXPECT_EQ(main_arena.allocations(), 0u);
}

TEST(ArenaAllocator, ServesFromArenaAndFallsBackToHeap) {
  Arena arena;
  {
    ArenaScope scope{arena};
    std::vector<int, ArenaAllocator<int>> v;
    for (int i = 0; i < 1000; ++i) v.push_back(i);
    EXPECT_GT(arena.allocations(), 0u);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(v[i], i);
  }  // vector dies before the arena: deallocate() was a no-op throughout

  // No scope: the allocator degrades to plain heap allocation.
  ASSERT_EQ(Arena::current(), nullptr);
  std::vector<int, ArenaAllocator<int>> heap_backed;
  for (int i = 0; i < 1000; ++i) heap_backed.push_back(i);
  EXPECT_EQ(heap_backed.size(), 1000u);
  EXPECT_EQ(heap_backed.get_allocator().arena(), nullptr);
}

// --- End-to-end guarantees through the experiment pipeline ---

std::vector<core::ExperimentConfig> small_matrix(int runs = 3) {
  using B = browser::BrowserId;
  using O = browser::OsId;
  using K = methods::ProbeKind;
  struct Cell {
    B b;
    O os;
    K k;
  };
  const Cell cells[] = {
      {B::kChrome, O::kUbuntu, K::kXhrGet},
      {B::kChrome, O::kUbuntu, K::kWebSocket},
      {B::kFirefox, O::kWindows7, K::kDom},
      {B::kOpera, O::kUbuntu, K::kFlashGet},
      {B::kSafari, O::kWindows7, K::kJavaSocket},
      {B::kFirefox, O::kUbuntu, K::kXhrPost},
  };
  std::vector<core::ExperimentConfig> out;
  for (const auto& c : cells) {
    core::ExperimentConfig cfg;
    cfg.browser = c.b;
    cfg.os = c.os;
    cfg.kind = c.k;
    cfg.runs = runs;
    out.push_back(cfg);
  }
  return out;
}

void expect_identical(const core::OverheadSeries& a,
                      const core::OverheadSeries& b) {
  EXPECT_EQ(a.case_label, b.case_label);
  EXPECT_EQ(a.method_name, b.method_name);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.first_error, b.first_error);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const core::OverheadSample& x = a.samples[i];
    const core::OverheadSample& y = b.samples[i];
    // Bitwise equality: the arena must be observationally invisible.
    EXPECT_EQ(x.d1_ms, y.d1_ms);
    EXPECT_EQ(x.d2_ms, y.d2_ms);
    EXPECT_EQ(x.browser_rtt1_ms, y.browser_rtt1_ms);
    EXPECT_EQ(x.browser_rtt2_ms, y.browser_rtt2_ms);
    EXPECT_EQ(x.net_rtt1_ms, y.net_rtt1_ms);
    EXPECT_EQ(x.net_rtt2_ms, y.net_rtt2_ms);
    EXPECT_EQ(x.connections_opened1, y.connections_opened1);
    EXPECT_EQ(x.connections_opened2, y.connections_opened2);
  }
}

TEST(ArenaIdentity, PerWorkerArenasMatchSerialUnderRunMatrix) {
  // jobs=3 gives each pool worker its own thread-local arena; results must
  // still match the single-arena serial pass cell for cell.
  const auto cells = small_matrix();
  const auto serial = core::run_matrix(cells, /*jobs=*/1);
  const auto parallel = core::run_matrix(cells, /*jobs=*/3);
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(serial[i], parallel[i]);
  }
}

// --- arena.* registry counters: published, not counted per allocation ---

TEST(ArenaPublish, StandaloneRunPublishesTheSimulationArena) {
  core::ExperimentConfig cfg = small_matrix(/*runs=*/4)[0];
  ASSERT_EQ(Arena::current(), nullptr);  // run() uses the testbed's arena
  const std::uint64_t allocs_before = ArenaStats::allocations();
  const std::uint64_t bytes_before = ArenaStats::bytes();
  core::Experiment experiment{cfg};
  experiment.run();
  // Published when run() returned, with the arena still alive.
  const Arena& arena = experiment.testbed().sim().arena();
  ASSERT_GT(arena.allocations(), 0u);
  EXPECT_EQ(ArenaStats::allocations() - allocs_before, arena.allocations());
  EXPECT_EQ(ArenaStats::bytes() - bytes_before, arena.bytes_served());
}

TEST(ArenaPublish, PeakAfterStatsResetIsTheNextCellsPeak) {
  // A pool worker's thread_local arena outlives ArenaStats::reset() between
  // bench passes; the gauge must then show the next cell's peak, not the
  // arena's lifetime high-water mark.
  std::uint64_t peak = 0, allocs = 0, bytes = 0;
  std::thread worker{[&] {
    thread_local Arena worker_arena;
    for (int i = 0; i < 4; ++i) worker_arena.allocate(16 * 1024);  // cell 1
    worker_arena.reset();
    ArenaStats::reset();
    for (int i = 0; i < 3; ++i) worker_arena.allocate(1024);  // cell 2
    worker_arena.reset();
    peak = ArenaStats::peak_arena_bytes();
    allocs = ArenaStats::allocations();
    bytes = ArenaStats::bytes();
    EXPECT_EQ(worker_arena.peak_bytes(), 64u * 1024u);  // lifetime
  }};
  worker.join();
  EXPECT_EQ(peak, 3u * 1024u);
  EXPECT_EQ(allocs, 3u);
  EXPECT_EQ(bytes, 3u * 1024u);
}

TEST(ArenaPublish, DestructionPublishesUnresetService) {
  ArenaStats::reset();
  {
    Arena arena;
    arena.allocate(100);
    arena.allocate(28);
    EXPECT_EQ(ArenaStats::allocations(), 0u);  // not yet published
  }
  EXPECT_EQ(ArenaStats::allocations(), 2u);
  EXPECT_EQ(ArenaStats::bytes(), 128u);
  EXPECT_EQ(ArenaStats::peak_arena_bytes(), 128u);
}

TEST(ArenaPublish, SerialAndParallelSnapshotsAreIdentical) {
  // The registry contract bench/obs_overhead gates: published arena.* (and
  // every other metric) merge to the same snapshot at 1 and 4 jobs.
  const auto cells = small_matrix();
  auto& registry = obs::MetricsRegistry::instance();
  registry.reset();
  core::run_matrix(cells, /*jobs=*/1);
  const std::string serial = registry.snapshot().to_json();
  registry.reset();
  core::run_matrix(cells, /*jobs=*/4);
  const std::string parallel = registry.snapshot().to_json();
  EXPECT_NE(serial.find("\"arena.allocations\""), std::string::npos);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace bnm::sim
