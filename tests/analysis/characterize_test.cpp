#include "analysis/characterize.hpp"

#include <gtest/gtest.h>

namespace ess::analysis {
namespace {

trace::Record rec(SimTime ts, std::uint32_t sector, std::uint32_t size,
                  bool write) {
  trace::Record r;
  r.timestamp = ts;
  r.sector = sector;
  r.size_bytes = size;
  r.is_write = write ? 1 : 0;
  return r;
}

trace::TraceSet sample() {
  trace::TraceSet ts("sample", 0);
  // 3 writes of 1K at sector 100; 1 read of 4K at sector 200'000.
  ts.add(rec(sec(1), 100, 1024, true));
  ts.add(rec(sec(2), 100, 1024, true));
  ts.add(rec(sec(3), 200'000, 4096, false));
  ts.add(rec(sec(4), 100, 1024, true));
  ts.set_duration(sec(10));
  return ts;
}

TEST(RwMix, CountsAndRates) {
  const auto m = rw_mix(sample());
  EXPECT_EQ(m.reads, 1u);
  EXPECT_EQ(m.writes, 3u);
  EXPECT_EQ(m.total, 4u);
  EXPECT_DOUBLE_EQ(m.read_pct, 25.0);
  EXPECT_DOUBLE_EQ(m.write_pct, 75.0);
  EXPECT_DOUBLE_EQ(m.requests_per_sec, 0.4);
}

TEST(RwMix, EmptyTraceIsZero) {
  const auto m = rw_mix(trace::TraceSet{});
  EXPECT_EQ(m.total, 0u);
  EXPECT_EQ(m.requests_per_sec, 0.0);
}

TEST(SizeClasses, FractionsByExactSize) {
  const auto ts = sample();
  EXPECT_DOUBLE_EQ(size_class_fraction(ts, 1024), 0.75);
  EXPECT_DOUBLE_EQ(size_class_fraction(ts, 4096), 0.25);
  EXPECT_DOUBLE_EQ(size_class_fraction(ts, 2048), 0.0);
  EXPECT_DOUBLE_EQ(size_at_least_fraction(ts, 1024), 1.0);
  EXPECT_DOUBLE_EQ(size_at_least_fraction(ts, 4096), 0.25);
}

TEST(RequestSizeHistogram, BucketsByBytes) {
  const auto h = request_size_histogram(sample());
  EXPECT_EQ(h.count(1024), 3u);
  EXPECT_EQ(h.count(4096), 1u);
}

TEST(TimeSeries, PointsCarryUnits) {
  const auto pts = size_time_series(sample());
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_DOUBLE_EQ(pts[0].t_sec, 1.0);
  EXPECT_DOUBLE_EQ(pts[0].size_kb, 1.0);
  EXPECT_TRUE(pts[0].is_write);
  EXPECT_DOUBLE_EQ(pts[2].size_kb, 4.0);
  EXPECT_FALSE(pts[2].is_write);

  const auto sp = sector_time_series(sample());
  EXPECT_DOUBLE_EQ(sp[2].sector, 200'000.0);
}

TEST(SpatialLocality, BandsOf100K) {
  const auto bands = spatial_locality(sample(), 100'000);
  ASSERT_EQ(bands.size(), 2u);
  EXPECT_EQ(bands[0].band_start_sector, 0u);
  EXPECT_EQ(bands[0].requests, 3u);
  EXPECT_DOUBLE_EQ(bands[0].pct, 75.0);
  EXPECT_EQ(bands[1].band_start_sector, 200'000u);
  EXPECT_DOUBLE_EQ(bands[1].pct, 25.0);
}

TEST(TemporalLocality, FrequencyPerSecond) {
  const auto freqs = temporal_locality(sample(), 2);
  ASSERT_EQ(freqs.size(), 1u);  // only sector 100 has >= 2 accesses
  EXPECT_EQ(freqs[0].sector, 100u);
  EXPECT_EQ(freqs[0].accesses, 3u);
  EXPECT_DOUBLE_EQ(freqs[0].per_sec, 0.3);
}

TEST(HotSpots, RankedByCount) {
  const auto hot = hot_spots(sample(), 2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].sector, 100u);
  EXPECT_EQ(hot[1].sector, 200'000u);
}

TEST(ReuseGap, AveragesSameSectorIntervals) {
  // Sector 100 accessed at 1s, 2s, 4s: gaps 1s and 2s -> mean 1.5s.
  EXPECT_DOUBLE_EQ(mean_reuse_gap_sec(sample()), 1.5);
}

TEST(ReuseGap, NoReuseIsZero) {
  trace::TraceSet ts;
  ts.add(rec(sec(1), 1, 1024, true));
  ts.add(rec(sec(2), 2, 1024, true));
  EXPECT_DOUBLE_EQ(mean_reuse_gap_sec(ts), 0.0);
}

TEST(Coverage, SkewedTraceConcentrates) {
  trace::TraceSet ts;
  for (int i = 0; i < 90; ++i) ts.add(rec(sec(1), 5, 1024, true));
  for (int i = 0; i < 10; ++i) {
    ts.add(rec(sec(2), 1000u + static_cast<std::uint32_t>(i), 1024, true));
  }
  ts.set_duration(sec(10));
  // One sector out of 11 covers 90%.
  EXPECT_NEAR(sector_coverage_fraction(ts, 0.9), 1.0 / 11.0, 1e-9);
  EXPECT_NEAR(disk_fraction_for_coverage(ts, 0.9, 1000), 1.0 / 1000, 1e-9);
}

TEST(RateOverTime, WindowsCountPerSecond) {
  trace::TraceSet ts;
  for (int i = 0; i < 10; ++i) ts.add(rec(sec(1), 0, 1024, true));
  ts.add(rec(sec(15), 0, 1024, true));
  ts.set_duration(sec(20));
  const auto rates = rate_over_time(ts, sec(10));
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);   // 10 requests / 10 s
  EXPECT_DOUBLE_EQ(rates[1], 0.1);
}

TEST(Summarize, FillsEveryField) {
  const auto s = summarize(sample());
  EXPECT_EQ(s.experiment, "sample");
  EXPECT_EQ(s.mix.total, 4u);
  EXPECT_DOUBLE_EQ(s.pct_1k, 75.0);
  EXPECT_DOUBLE_EQ(s.pct_4k, 25.0);
  EXPECT_EQ(s.max_request_bytes, 4096u);
  EXPECT_DOUBLE_EQ(s.duration_sec, 10.0);
}

TEST(AverageSummaries, MeansAcrossNodes) {
  TraceSummary a, b;
  a.experiment = b.experiment = "X";
  a.mix.reads = 10;
  a.mix.writes = 90;
  a.mix.total = 100;
  a.mix.requests_per_sec = 1.0;
  a.pct_1k = 80;
  a.duration_sec = 100;
  b.mix.reads = 30;
  b.mix.writes = 70;
  b.mix.total = 100;
  b.mix.requests_per_sec = 3.0;
  b.pct_1k = 60;
  b.duration_sec = 100;
  const auto avg = average_summaries({a, b});
  EXPECT_EQ(avg.mix.total, 100u);
  EXPECT_DOUBLE_EQ(avg.mix.requests_per_sec, 2.0);
  EXPECT_DOUBLE_EQ(avg.mix.read_pct, 20.0);
  EXPECT_DOUBLE_EQ(avg.pct_1k, 70.0);
  EXPECT_EQ(avg.mix.reads, 20u);
}

TEST(AverageSummaries, EmptyIsDefault) {
  const auto avg = average_summaries({});
  EXPECT_EQ(avg.mix.total, 0u);
}

}  // namespace
}  // namespace ess::analysis
