// OMB-J benchmark machinery: options, the benchmark bodies (tiny runs),
// the figure harness, and the virtual-time properties benchmarks rely on.
#include <gtest/gtest.h>

#include "jhpc/minimpi/universe.hpp"
#include "jhpc/ombj/benchmarks.hpp"
#include "jhpc/ombj/harness.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::ombj {
namespace {

BenchOptions tiny() {
  BenchOptions opt;
  opt.min_size = 1;
  opt.max_size = 256;
  opt.warmup_small = 2;
  opt.iters_small = 10;
  opt.warmup_large = 1;
  opt.iters_large = 3;
  opt.window = 8;
  return opt;
}

FigureSpec tiny_fig(BenchKind kind, std::vector<SeriesSpec> series,
                    int ranks = 2, int ppn = 0) {
  FigureSpec fig;
  fig.id = "test";
  fig.title = "test";
  fig.kind = kind;
  fig.options = tiny();
  fig.ranks = ranks;
  fig.ppn = ppn;
  fig.series = std::move(series);
  return fig;
}

TEST(OptionsTest, BenchNamesRoundTrip) {
  for (int k = 0; k <= static_cast<int>(BenchKind::kGetBandwidth); ++k) {
    const auto kind = static_cast<BenchKind>(k);
    EXPECT_EQ(bench_from_name(bench_name(kind)), kind);
  }
  EXPECT_THROW(bench_from_name("nope"), InvalidArgumentError);
}

TEST(OptionsTest, IterationScalingBySize) {
  BenchOptions opt;
  opt.iters_small = 100;
  opt.iters_large = 10;
  opt.large_threshold = 8192;
  EXPECT_EQ(opt.iterations_for(8192), 100);
  EXPECT_EQ(opt.iterations_for(8193), 10);
}

TEST(VirtualTimeTest, VtimeAdvancesWithCpuWork) {
  minimpi::UniverseConfig cfg;
  cfg.world_size = 1;
  minimpi::Universe::launch(cfg, [](minimpi::Comm& world) {
    const auto t0 = world.vtime_ns();
    volatile double sink = 1.0;
    for (int i = 0; i < 2'000'000; ++i) sink = sink * 1.0000001;
    const auto t1 = world.vtime_ns();
    EXPECT_GT(t1 - t0, 100'000) << "real compute must advance virtual time";
  });
}

TEST(VirtualTimeTest, InterNodeLatencyDominatedByModel) {
  // A 2-rank ping-pong across a high-latency virtual link must measure
  // roughly 2x the configured one-way latency per round trip, regardless
  // of host scheduling.
  minimpi::UniverseConfig cfg;
  cfg.world_size = 2;
  cfg.fabric.ranks_per_node = 1;
  cfg.fabric.inter_latency_ns = 50'000;  // 50 us, dwarfs CPU costs
  minimpi::Universe::launch(cfg, [](minimpi::Comm& world) {
    char byte = 0;
    // Warm up and synchronise.
    world.barrier();
    constexpr int kIters = 10;
    // Each rank times whole round trips: rank 0 from its first send to
    // its last receive, rank 1 from its first receive to its last (one
    // round fewer). Rank 1's barrier exit is no start point: it is skewed
    // against rank 0's, and ends half a round trip off.
    std::int64_t from = world.vtime_ns(), to = from;
    for (int i = 0; i < kIters; ++i) {
      if (world.rank() == 0) {
        world.send(&byte, 1, 1, 0);
        world.recv(&byte, 1, 1, 0);
        to = world.vtime_ns();
      } else {
        world.recv(&byte, 1, 0, 0);
        to = world.vtime_ns();
        if (i == 0) from = to;
        world.send(&byte, 1, 0, 0);
      }
    }
    const int rounds = world.rank() == 0 ? kIters : kIters - 1;
    const auto per_round = (to - from) / rounds;
    EXPECT_GT(per_round, 95'000);   // ~2 x 50 us
    EXPECT_LT(per_round, 140'000);  // plus bounded CPU overhead
  });
}

TEST(VirtualTimeTest, BandwidthSaturatesAtModelledRate) {
  const auto fig =
      tiny_fig(BenchKind::kBandwidth,
               {{Library::kNativeMv2, Api::kBuffer, "native"}}, 2, 1);
  FigureSpec f = fig;
  f.options.min_size = 1 << 20;
  f.options.max_size = 1 << 20;  // a single 1 MB point
  f.options.iters_large = 5;
  f.fabric.inter_bandwidth_mbps = 2000.0;
  const auto results = run_figure(f);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].supported);
  ASSERT_EQ(results[0].rows.size(), 1u);
  const double mbps = results[0].rows[0].value;
  EXPECT_GT(mbps, 1000.0) << "should approach the 2000 MB/s line rate";
  EXPECT_LT(mbps, 2100.0) << "cannot exceed the line rate";
}

TEST(BenchTest, LatencyProducesAllSizes) {
  const auto results = run_figure(
      tiny_fig(BenchKind::kLatency,
               {{Library::kMv2j, Api::kBuffer, ""},
                {Library::kMv2j, Api::kArrays, ""},
                {Library::kOmpij, Api::kBuffer, ""},
                {Library::kOmpij, Api::kArrays, ""}}));
  for (const auto& r : results) {
    ASSERT_TRUE(r.supported) << r.error;
    EXPECT_EQ(r.rows.size(), 9u);  // 1..256 powers of two
    for (const auto& row : r.rows) EXPECT_GT(row.value, 0.0);
  }
}

TEST(BenchTest, BandwidthUnsupportedForOmpijArrays) {
  const auto results = run_figure(
      tiny_fig(BenchKind::kBandwidth, {{Library::kOmpij, Api::kArrays, ""},
                                       {Library::kOmpij, Api::kBuffer, ""}}));
  EXPECT_FALSE(results[0].supported);
  EXPECT_NE(results[0].error.find("non-blocking"), std::string::npos);
  EXPECT_TRUE(results[1].supported);
}

TEST(BenchTest, ValidationModeStillMeasures) {
  auto fig = tiny_fig(BenchKind::kLatency, {{Library::kMv2j, Api::kArrays,
                                             ""}});
  fig.options.validate = true;
  const auto results = run_figure(fig);
  ASSERT_TRUE(results[0].supported);
  EXPECT_EQ(results[0].rows.size(), 9u);
}

TEST(BenchTest, MultiLatencyAveragesPairs) {
  const auto results = run_figure(tiny_fig(
      BenchKind::kMultiLat, {{Library::kMv2j, Api::kBuffer, ""}}, 4, 2));
  ASSERT_TRUE(results[0].supported) << results[0].error;
  EXPECT_EQ(results[0].rows.size(), 9u);
  for (const auto& row : results[0].rows) EXPECT_GT(row.value, 0.0);
}

TEST(BenchTest, CollectivesRunOnAllKinds) {
  for (const BenchKind kind :
       {BenchKind::kBcast, BenchKind::kReduce, BenchKind::kAllreduce,
        BenchKind::kReduceScatter, BenchKind::kScan, BenchKind::kGather,
        BenchKind::kScatter, BenchKind::kAllgather,
        BenchKind::kAlltoall, BenchKind::kGatherv, BenchKind::kScatterv,
        BenchKind::kAllgatherv, BenchKind::kAlltoallv}) {
    for (const Api api : {Api::kBuffer, Api::kArrays}) {
      auto fig = tiny_fig(kind, {{Library::kMv2j, api, ""}}, 3, 0);
      const auto results = run_figure(fig);
      ASSERT_TRUE(results[0].supported)
          << bench_name(kind) << ": " << results[0].error;
      EXPECT_FALSE(results[0].rows.empty()) << bench_name(kind);
    }
  }
}

TEST(BenchTest, MultiPairBandwidthAggregates) {
  // osu_mbw_mr on 4 ranks over a modelled link: two pairs must aggregate
  // to roughly twice the per-pair line rate when links are independent.
  auto fig = tiny_fig(BenchKind::kMultiBw,
                      {{Library::kMv2j, Api::kBuffer, ""}}, 4, 1);
  fig.options.min_size = 1 << 20;
  fig.options.max_size = 1 << 20;
  fig.options.iters_large = 5;
  fig.fabric.inter_bandwidth_mbps = 1000.0;
  const auto results = run_figure(fig);
  ASSERT_TRUE(results[0].supported) << results[0].error;
  ASSERT_EQ(results[0].rows.size(), 1u);
  const double mbps = results[0].rows[0].value;
  EXPECT_GT(mbps, 1100.0) << "two pairs on distinct links beat one link";
  EXPECT_LT(mbps, 2100.0) << "cannot exceed 2x the line rate";
}

TEST(BenchTest, MultiPairBandwidthOddRankSitsOut) {
  auto fig = tiny_fig(BenchKind::kMultiBw,
                      {{Library::kMv2j, Api::kArrays, ""}}, 5, 0);
  const auto results = run_figure(fig);
  ASSERT_TRUE(results[0].supported) << results[0].error;
  EXPECT_FALSE(results[0].rows.empty());
}

TEST(BenchTest, BarrierGivesOneRow) {
  const auto results = run_figure(tiny_fig(
      BenchKind::kBarrier, {{Library::kMv2j, Api::kBuffer, ""}}, 4, 2));
  ASSERT_TRUE(results[0].supported);
  ASSERT_EQ(results[0].rows.size(), 1u);
  EXPECT_GT(results[0].rows[0].value, 0.0);
}

TEST(BenchTest, OverlapBenchmarksReportLatencyAndOverlap) {
  // osu_ibcast / osu_iallreduce over the nonblocking schedule engine:
  // every row must carry a positive pure latency and an overlap
  // percentage in [0, 100], and the engine must hide at least *some*
  // communication behind the calibrated compute across the sweep.
  for (const BenchKind kind : {BenchKind::kIbcast, BenchKind::kIallreduce}) {
    for (const Library lib : {Library::kMv2j, Library::kNativeMv2}) {
      auto fig = tiny_fig(kind, {{lib, Api::kBuffer, ""}}, 4, 2);
      fig.options.max_size = 4096;
      const auto results = run_figure(fig);
      ASSERT_TRUE(results[0].supported)
          << bench_name(kind) << ": " << results[0].error;
      ASSERT_FALSE(results[0].rows.empty()) << bench_name(kind);
      double overlap_sum = 0.0;
      for (const auto& row : results[0].rows) {
        EXPECT_GT(row.value, 0.0) << bench_name(kind);
        EXPECT_GE(row.overlap, 0.0) << bench_name(kind);
        EXPECT_LE(row.overlap, 100.0) << bench_name(kind);
        overlap_sum += row.overlap;
      }
      EXPECT_GT(overlap_sum, 0.0)
          << bench_name(kind) << " on " << library_name(lib)
          << ": no size showed any communication/computation overlap";
    }
  }
}

TEST(BenchTest, OverlapBenchmarksAreBufferOnly) {
  const auto results = run_figure(tiny_fig(
      BenchKind::kIbcast, {{Library::kMv2j, Api::kArrays, ""}}, 3, 0));
  ASSERT_FALSE(results[0].supported);
  EXPECT_NE(results[0].error.find("ByteBuffer"), std::string::npos);
}

TEST(BenchTest, OverlapBenchmarksChargeNbcPvars) {
  // The schedule engine must show up in the MPI_T-style counters: after
  // an ibcast sweep every rank charged coll.nbc.bcast once per
  // operation, and the per-round spans rode the same recorder.
  minimpi::UniverseConfig cfg;
  cfg.world_size = 3;
  cfg.obs = obs::ObsConfig{};
  cfg.obs.trace_path = testing::TempDir() + "ombj_nbc_pvars.json";
  minimpi::Universe::launch(cfg, [](minimpi::Comm& world) {
    std::vector<std::byte> buf(512);
    for (int i = 0; i < 4; ++i) world.ibcast(buf.data(), buf.size(), 0).wait();
    float in = 1.0F;
    float out = 0.0F;
    world
        .iallreduce(&in, &out, 1, minimpi::BasicKind::kFloat,
                    minimpi::ReduceOp::kSum)
        .wait();
    world.barrier();
    obs::PvarRegistry& reg = *world.pvars();
    const auto total = [&reg](const char* name) {
      return reg.total(reg.find(name));
    };
    EXPECT_EQ(total("coll.nbc.bcast"), 4 * world.size());
    EXPECT_EQ(total("coll.nbc.allreduce"), world.size());
    EXPECT_EQ(total("coll.nbc.barrier"), 0);
  });
}

TEST(BenchTest, NativeSeriesRun) {
  for (const Library lib : {Library::kNativeMv2, Library::kNativeOmpi}) {
    const auto results = run_figure(
        tiny_fig(BenchKind::kAllreduce, {{lib, Api::kBuffer, ""}}, 4, 2));
    ASSERT_TRUE(results[0].supported);
    EXPECT_FALSE(results[0].rows.empty());
  }
}

TEST(HarnessTest, FigureTableMergesBySize) {
  auto fig = tiny_fig(BenchKind::kLatency,
                      {{Library::kMv2j, Api::kBuffer, "A"},
                       {Library::kNativeMv2, Api::kBuffer, "B"}});
  const auto results = run_figure(fig);
  const Table t = figure_table(fig, results);
  EXPECT_EQ(t.headers().size(), 3u);
  EXPECT_EQ(t.rows(), 9u);
  EXPECT_EQ(t.headers()[1], "A us");
}

TEST(HarnessTest, OverlapTableAddsColumnPerSeries) {
  auto fig = tiny_fig(BenchKind::kIallreduce,
                      {{Library::kNativeMv2, Api::kBuffer, "N"}}, 3, 0);
  fig.options.max_size = 1024;
  const auto results = run_figure(fig);
  const Table t = figure_table(fig, results);
  ASSERT_EQ(t.headers().size(), 3u);
  EXPECT_EQ(t.headers()[1], "N us");
  EXPECT_EQ(t.headers()[2], "N ovl%");
  ASSERT_GT(t.rows(), 0u);
  EXPECT_NE(t.data()[0][2], "-");
}

TEST(HarnessTest, UnsupportedSeriesShowsNa) {
  auto fig = tiny_fig(BenchKind::kBandwidth,
                      {{Library::kMv2j, Api::kBuffer, "ok"},
                       {Library::kOmpij, Api::kArrays, "nope"}});
  const auto results = run_figure(fig);
  const Table t = figure_table(fig, results);
  ASSERT_GT(t.rows(), 0u);
  EXPECT_EQ(t.data()[0][2], "n/a");
}

TEST(HarnessTest, AverageRatioGeometricMean) {
  std::vector<SeriesResult> results(2);
  results[0].label = "slow";
  results[0].rows = {{1, 10.0}, {2, 40.0}};
  results[1].label = "fast";
  results[1].rows = {{1, 5.0}, {2, 10.0}};
  // Ratios: 2 and 4 -> geometric mean sqrt(8) ~= 2.828.
  EXPECT_NEAR(average_ratio(results, "slow", "fast"), 2.8284, 1e-3);
  EXPECT_EQ(average_ratio(results, "slow", "missing"), 0.0);
  results[1].supported = false;
  EXPECT_EQ(average_ratio(results, "slow", "fast"), 0.0);
}

TEST(HarnessTest, LibraryAndApiNames) {
  EXPECT_STREQ(library_name(Library::kMv2j), "MVAPICH2-J");
  EXPECT_STREQ(library_name(Library::kOmpij), "Open MPI-J");
  EXPECT_STREQ(api_name(Api::kArrays), "arrays");
}

}  // namespace
}  // namespace jhpc::ombj
