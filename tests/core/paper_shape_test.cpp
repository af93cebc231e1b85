// Integration tests asserting the paper's headline findings hold on the
// simulated system — the "shape" checks of the reproduction, at reduced
// scale (core::fast_study_config) so the full suite stays fast. The bench
// binaries assert the same properties at full scale.
#include <gtest/gtest.h>

#include "analysis/characterize.hpp"
#include "core/presets.hpp"
#include "core/study.hpp"

namespace ess::core {
namespace {

class PaperShape : public ::testing::Test {
 protected:
  static Study& study() {
    static Study s(core::fast_study_config());
    return s;
  }
};

TEST_F(PaperShape, BaselineMostlyOneKilobyteWrites) {
  const auto r = study().run_baseline();
  const auto s = analysis::summarize(r.trace);
  // "The predominate I/O request size observed during this period is 1KB"
  EXPECT_GT(s.pct_1k, 60.0);
  // "System and instrumentation logging account for the almost exclusive
  //  amount of writes"
  EXPECT_GT(s.mix.write_pct, 99.0);
  // "requests per sec 0.9" — order of magnitude.
  EXPECT_GT(s.mix.requests_per_sec, 0.2);
  EXPECT_LT(s.mix.requests_per_sec, 3.0);
}

TEST_F(PaperShape, BaselineConcentratedOnFewSectors) {
  const auto r = study().run_baseline();
  // "I/O accesses concentrated around a few sectors ... seen as horizontal
  //  lines": a small set of sectors covers most requests.
  EXPECT_LT(analysis::sector_coverage_fraction(r.trace, 0.8), 0.5);
  const auto hot = analysis::hot_spots(r.trace, 3);
  ASSERT_GE(hot.size(), 1u);
  EXPECT_GE(hot[0].accesses, 3u);
}

TEST_F(PaperShape, BaselineTouchesLowAndHighSectors) {
  const auto r = study().run_baseline();
  bool low = false, high = false;
  for (const auto& rec : r.trace.records()) {
    if (rec.sector < 200'000) low = true;
    if (rec.sector > 800'000) high = true;
  }
  EXPECT_TRUE(low);
  EXPECT_TRUE(high);  // the kernel log lives at high sectors
}

TEST_F(PaperShape, PpmIsWriteDominatedAndQuiet) {
  const auto r = study().run_single(AppKind::kPpm);
  const auto s = analysis::summarize(r.trace);
  // "4% reads / 96% writes", "relatively low" activity, 1 KB prevalent.
  EXPECT_LT(s.mix.read_pct, 15.0);
  EXPECT_GT(s.pct_1k, 50.0);
  EXPECT_LT(s.mix.requests_per_sec, 3.0);
}

TEST_F(PaperShape, WaveletPagesHeavilyAndReadsItsImage) {
  const auto r = study().run_single(AppKind::kWavelet);
  const auto s = analysis::summarize(r.trace);
  // "a frequent request size of 4KB ... a high rate of paging"
  EXPECT_GT(s.pct_4k, 25.0);
  // The only application with significant input data: reads far above the
  // simulation codes'.
  EXPECT_GT(s.mix.read_pct, 20.0);
  // Large streaming requests appear when the image file is read.
  EXPECT_GE(s.max_request_bytes, 8u * 1024);
}

TEST_F(PaperShape, WaveletHasEarlyPagingPhase) {
  const auto r = study().run_single(AppKind::kWavelet);
  // Compare 4 KB paging in the first quarter vs the middle: startup
  // "builds the working set of the code and large data structures".
  const auto dur = r.trace.duration();
  const auto early = r.trace.slice(0, dur / 4);
  const auto mid = r.trace.slice(dur / 2, dur * 3 / 4);
  const double early_4k =
      analysis::size_class_fraction(early, 4096) *
      static_cast<double>(early.size());
  const double mid_4k = analysis::size_class_fraction(mid, 4096) *
                        static_cast<double>(mid.size());
  EXPECT_GT(early_4k, mid_4k);
}

TEST_F(PaperShape, NBodySitsBetweenPpmAndWavelet) {
  const auto ppm = analysis::summarize(study().run_single(AppKind::kPpm).trace);
  const auto nb =
      analysis::summarize(study().run_single(AppKind::kNBody).trace);
  const auto wav =
      analysis::summarize(study().run_single(AppKind::kWavelet).trace);
  // Read fraction ordering: PPM <= N-body << wavelet.
  EXPECT_LE(ppm.mix.read_pct, nb.mix.read_pct + 5.0);
  EXPECT_LT(nb.mix.read_pct, wav.mix.read_pct);
  // N-body writes dominated ("13% reads / 87% writes").
  EXPECT_GT(nb.mix.write_pct, 60.0);
}

TEST_F(PaperShape, NBodyShowsTwoKilobyteCheckpoints) {
  const auto r = study().run_single(AppKind::kNBody);
  // "more 2 KB requests ... than occurred during PPM"
  EXPECT_GT(analysis::size_class_fraction(r.trace, 2048), 0.0);
}

TEST_F(PaperShape, CombinedDrivesRequestSizesHigher) {
  const auto combined = study().run_combined();
  const auto wav = study().run_single(AppKind::kWavelet);
  std::uint32_t max_combined = 0, max_single = 0;
  for (const auto& rec : combined.trace.records()) {
    max_combined = std::max(max_combined, rec.size_bytes);
  }
  for (const auto& rec : wav.trace.records()) {
    max_single = std::max(max_single, rec.size_bytes);
  }
  // "the combined effect of the applications have driven the total request
  //  sizes much higher than when the applications were run independently"
  EXPECT_GE(max_combined, max_single);
  EXPECT_GE(max_combined, 16u * 1024);
}

TEST_F(PaperShape, CombinedRunsLongerThanSingles) {
  const auto combined = study().run_combined();
  const auto wav = study().run_single(AppKind::kWavelet);
  EXPECT_GT(combined.trace.duration(), wav.trace.duration());
}

TEST_F(PaperShape, CombinedSpatialLocalityFollows9010) {
  const auto r = study().run_combined();
  const auto bands = analysis::spatial_locality(r.trace);
  double low_band_pct = 0;
  for (const auto& b : bands) {
    if (b.band_start_sector < 200'000) low_band_pct += b.pct;
  }
  // "The higher incidence of I/O activity in the lower sector numbers".
  EXPECT_GT(low_band_pct, 70.0);
  // 90% of requests from a small fraction of the disk.
  EXPECT_LT(analysis::disk_fraction_for_coverage(r.trace, 0.9), 0.05);
}

TEST_F(PaperShape, CombinedHasTemporalHotSpots) {
  const auto r = study().run_combined();
  const auto hot = analysis::hot_spots(r.trace, 2);
  ASSERT_EQ(hot.size(), 2u);
  // The hottest sectors are accessed repeatedly (hot spots exist).
  EXPECT_GE(hot[0].accesses, 5u);
  // Both hot spots are in the low region, as in Fig. 8.
  EXPECT_LT(hot[0].sector, 150'000u);
  EXPECT_LT(hot[1].sector, 150'000u);
}

TEST_F(PaperShape, RequestSizesFallIntoThreeClasses) {
  const auto r = study().run_combined();
  const auto h = analysis::request_size_histogram(r.trace);
  // 1 KB block I/O, 4 KB paging both present and dominant among classes.
  EXPECT_GT(h.count(1024), 0u);
  EXPECT_GT(h.count(4096), 0u);
  const double covered =
      analysis::size_class_fraction(r.trace, 1024) +
      analysis::size_class_fraction(r.trace, 2048) +
      analysis::size_class_fraction(r.trace, 3072) +
      analysis::size_class_fraction(r.trace, 4096) +
      analysis::size_at_least_fraction(r.trace, 8 * 1024);
  EXPECT_GT(covered, 0.9);
}

}  // namespace
}  // namespace ess::core
