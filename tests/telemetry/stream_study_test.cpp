// End-to-end streaming telemetry: a live StreamSummary attached to a Study
// run must reproduce the batch analysis::characterize results on the
// returned trace, and the drain-side EsstFileSink must capture an indexed
// ESST file equivalent to that trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "core/presets.hpp"
#include "core/study.hpp"
#include "telemetry/consumers.hpp"
#include "telemetry/esst.hpp"
#include "telemetry/snapshot.hpp"
#include "trace/io.hpp"

namespace ess::telemetry {
namespace {

TEST(StreamStudy, LiveSummaryMatchesBatchCharacterizationOnCombined) {
  auto cfg = core::fast_study_config();
  StreamSummary live;
  cfg.live_sink = &live;
  core::Study study(cfg);
  const auto res = study.run_combined();
  ASSERT_GT(res.trace.size(), 0u);

  // The live sink saw every record the driver emitted, at raw node time;
  // the returned trace holds the same records rebased to tracing-on. All
  // time-shift-invariant metrics must agree exactly.
  EXPECT_EQ(live.records(), res.trace.size());

  const auto batch_hist = analysis::request_size_histogram(res.trace);
  EXPECT_EQ(live.sizes().histogram().cells(), batch_hist.cells());

  const auto batch_mix = analysis::rw_mix(res.trace);
  EXPECT_EQ(live.rw().reads(), batch_mix.reads);
  EXPECT_EQ(live.rw().writes(), batch_mix.writes);

  const auto batch_bands = analysis::spatial_locality(res.trace);
  const auto live_bands = live.spatial().bands();
  ASSERT_EQ(live_bands.size(), batch_bands.size());
  for (std::size_t i = 0; i < live_bands.size(); ++i) {
    EXPECT_EQ(live_bands[i].band_start_sector,
              batch_bands[i].band_start_sector);
    EXPECT_EQ(live_bands[i].requests, batch_bands[i].requests);
    EXPECT_DOUBLE_EQ(live_bands[i].pct, batch_bands[i].pct);
  }

  ASSERT_TRUE(live.hot().exact());
  const auto batch_hot = analysis::hot_spots(res.trace, 10);
  const auto live_hot = live.hot().top(10);
  ASSERT_EQ(live_hot.size(), batch_hot.size());
  for (std::size_t i = 0; i < live_hot.size(); ++i) {
    EXPECT_EQ(live_hot[i].sector, batch_hot[i].sector);
    EXPECT_EQ(live_hot[i].count, batch_hot[i].accesses);
  }

  EXPECT_EQ(live.sizes().max_request_bytes(),
            analysis::summarize(res.trace).max_request_bytes);
  EXPECT_TRUE(live.finished());
}

TEST(StreamStudy, DrainSinkCapturesEsstEquivalentToReturnedTrace) {
  const std::string path = ::testing::TempDir() + "/stream_study_drain.esst";
  auto cfg = core::fast_study_config();
  EsstMeta meta;
  meta.experiment = "wavelet";
  meta.seed = cfg.seed;
  meta.ram_bytes = cfg.node.ram_bytes;
  {
    EsstFileSink drain(path, meta);
    cfg.drain_sink = &drain;
    core::Study study(cfg);
    const auto res = study.run_single(core::AppKind::kWavelet);
    ASSERT_GT(res.trace.size(), 0u);
    EXPECT_EQ(drain.records_written(), res.trace.size());

    std::ifstream in(path, std::ios::binary);
    EsstReader reader(in);
    EXPECT_FALSE(reader.salvaged());
    EXPECT_EQ(reader.meta().experiment, "wavelet");
    const auto captured = reader.read_all();
    ASSERT_EQ(captured.size(), res.trace.size());
    // Same records in the same order; timestamps differ only by the
    // constant tracing-on offset removed by the rebase.
    ASSERT_GE(captured.records()[0].timestamp,
              res.trace.records()[0].timestamp);
    const SimTime shift =
        captured.records()[0].timestamp - res.trace.records()[0].timestamp;
    for (std::size_t i = 0; i < captured.size(); ++i) {
      const auto& a = captured.records()[i];
      const auto& b = res.trace.records()[i];
      EXPECT_EQ(a.timestamp, b.timestamp + shift);
      EXPECT_EQ(a.sector, b.sector);
      EXPECT_EQ(a.size_bytes, b.size_bytes);
      EXPECT_EQ(a.is_write, b.is_write);
      EXPECT_EQ(a.outstanding, b.outstanding);
    }
    // The capture spans the whole run, so its duration covers every record.
    EXPECT_GE(reader.duration(), captured.records().back().timestamp);
  }
  std::remove(path.c_str());
}

TEST(StreamStudy, BaselineEsstAtMostFortyPercentOfCsv) {
  auto cfg = core::fast_study_config();
  core::Study study(cfg);
  const auto res = study.run_baseline();
  ASSERT_GT(res.trace.size(), 0u);

  std::stringstream csv;
  trace::write_csv(res.trace, csv);
  std::stringstream esst;
  write_esst(res.trace, esst);
  EXPECT_LE(esst.str().size(), csv.str().size() * 2 / 5)
      << "ESST " << esst.str().size() << " bytes vs CSV "
      << csv.str().size() << " bytes for " << res.trace.size() << " records";
}

TEST(StreamStudy, WaveletCsvToEsstToCsvIsByteIdentical) {
  auto cfg = core::fast_study_config();
  core::Study study(cfg);
  const auto res = study.run_single(core::AppKind::kWavelet);
  ASSERT_GT(res.trace.size(), 0u);

  std::stringstream first_csv;
  trace::write_csv(res.trace, first_csv);

  const auto parsed = trace::read_csv(first_csv);
  std::stringstream esst;
  write_esst(parsed, esst);
  const auto decoded = read_esst(esst);

  std::stringstream second_csv;
  trace::write_csv(decoded, second_csv);
  EXPECT_EQ(second_csv.str(), first_csv.str());
}

TEST(StreamStudy, SnapshotEmitterReportsProgressDuringARun) {
  auto cfg = core::fast_study_config();
  StreamSummary live;
  std::vector<Snapshot> seen;
  SnapshotEmitter emitter(live, sec(10),
                          [&](const Snapshot& s) { seen.push_back(s); });
  FanoutSink fan;
  fan.add(&live);
  fan.add(&emitter);
  cfg.live_sink = &fan;
  core::Study study(cfg);
  const auto res = study.run_baseline();
  ASSERT_GT(res.trace.size(), 0u);

  // The 120 s baseline must have produced several mid-run snapshots plus
  // the final one fired by the study after trace collection.
  ASSERT_GE(seen.size(), 3u);
  EXPECT_TRUE(seen.back().final_snapshot);
  EXPECT_EQ(seen.back().records, res.trace.size());
  for (std::size_t i = 0; i + 1 < seen.size(); ++i) {
    EXPECT_FALSE(seen[i].final_snapshot);
    EXPECT_LE(seen[i].records, seen[i + 1].records);
    EXPECT_LE(seen[i].t, seen[i + 1].t);
  }
}

}  // namespace
}  // namespace ess::telemetry
