#include "core/study.hpp"

#include <gtest/gtest.h>

#include "core/presets.hpp"
#include "workload/synthetic.hpp"

namespace ess::core {
namespace {

TEST(Study, ArtifactsCachedAcrossCalls) {
  Study study(core::fast_study_config());
  const auto* first = &study.artifacts();
  const auto* second = &study.artifacts();
  EXPECT_EQ(first, second);
  EXPECT_GT(first->ppm.native_flops, 0u);
  EXPECT_GT(first->wavelet.native_flops, 0u);
  EXPECT_GT(first->nbody.total_interactions, 0u);
}

TEST(Study, BaselineIsAllWrites) {
  Study study(core::fast_study_config());
  const auto r = study.run_baseline();
  EXPECT_TRUE(r.completed);
  const auto mix = analysis::rw_mix(r.trace);
  EXPECT_GT(mix.total, 0u);
  EXPECT_EQ(mix.reads, 0u);
  EXPECT_NEAR(to_seconds(r.trace.duration()), 120.0, 1.0);
}

TEST(Study, SingleRunsComplete) {
  Study study(core::fast_study_config());
  for (const auto kind :
       {AppKind::kPpm, AppKind::kWavelet, AppKind::kNBody}) {
    const auto r = study.run_single(kind);
    EXPECT_TRUE(r.completed) << to_string(kind);
    EXPECT_GT(r.trace.size(), 0u) << to_string(kind);
  }
}

TEST(Study, CombinedUsesEnlargedBuffering) {
  auto cfg = core::fast_study_config();
  cfg.combined_coalesce_blocks = 32;
  Study study(cfg);
  const auto r = study.run_combined();
  EXPECT_TRUE(r.completed);
  std::uint32_t max_bytes = 0;
  for (const auto& rec : r.trace.records()) {
    max_bytes = std::max(max_bytes, rec.size_bytes);
  }
  EXPECT_LE(max_bytes, 32u * 1024);
}

TEST(Study, DeterministicForSameSeed) {
  auto cfg = core::fast_study_config();
  cfg.baseline_duration = sec(60);
  Study a(cfg), b(cfg);
  const auto ta = a.run_baseline().trace;
  const auto tb = b.run_baseline().trace;
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta.records()[i], tb.records()[i]);
  }
}

TEST(Study, SeedChangesTrace) {
  auto cfg = core::fast_study_config();
  cfg.baseline_duration = sec(60);
  Study a(cfg);
  cfg.seed = 999;
  cfg.node.seed = 999;
  Study b(cfg);
  const auto ta = a.run_baseline().trace;
  const auto tb = b.run_baseline().trace;
  EXPECT_NE(ta.size(), tb.size());
}

TEST(Study, CustomWorkloadRuns) {
  Study study(core::fast_study_config());
  auto synth = workload::sequential_write("logger", "/data/synth.log",
                                          256 * 1024, 8 * 1024, msec(200));
  const auto r = study.run_custom("Synthetic", {std::move(synth)});
  EXPECT_TRUE(r.completed);
  EXPECT_GT(r.trace.size(), 0u);
  const auto mix = analysis::rw_mix(r.trace);
  EXPECT_GT(mix.write_pct, 90.0);  // a pure logger, plus system writes
}

TEST(Study, CustomFixedDurationRun) {
  Study study(core::fast_study_config());
  auto synth = workload::sequential_write("logger", "/data/synth.log",
                                          10 * 1024 * 1024, 8 * 1024,
                                          sec(10));
  const auto r = study.run_custom("Cut", {std::move(synth)}, sec(30));
  EXPECT_FALSE(r.completed);  // far from done in 30 s
}

TEST(Study, Table1HasExpectedRows) {
  Study study(core::fast_study_config());
  const auto rows = study.table1(true);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0].experiment, "Baseline");
  EXPECT_EQ(rows[1].experiment, "PPM");
  EXPECT_EQ(rows[2].experiment, "Wavelet");
  EXPECT_EQ(rows[3].experiment, "N-Body");
  EXPECT_EQ(rows[4].experiment, "Combined");
}

TEST(Study, AppKindNames) {
  EXPECT_EQ(to_string(AppKind::kPpm), "PPM");
  EXPECT_EQ(to_string(AppKind::kWavelet), "Wavelet");
  EXPECT_EQ(to_string(AppKind::kNBody), "N-Body");
}

}  // namespace
}  // namespace ess::core
