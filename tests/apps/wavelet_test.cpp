#include "apps/wavelet/wavelet2d.hpp"
#include "apps/wavelet/wavelet_app.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <type_traits>

namespace ess::apps::wavelet {
namespace {

Plane random_plane(int n, std::uint64_t seed) {
  Rng rng(seed);
  Plane p(n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) p.at(r, c) = rng.uniform01() * 255.0;
  }
  return p;
}

double max_abs_diff(const Plane& a, const Plane& b) {
  double m = 0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    m = std::max(m, std::abs(a.data()[i] - b.data()[i]));
  }
  return m;
}

// gtest names each case by the bytes of this struct, so it must hold no
// padding: three padding bytes after `filter` used to take whatever the
// stack held, and the cases got a new name each time the tests were listed.
// `name_tag` fills those bytes with the values the cases were first
// registered under, which keeps every case's name as it was.
struct RoundTripCase {
  int size;
  int levels;
  Filter filter;
  std::array<std::uint8_t, 3> name_tag;
};
static_assert(std::has_unique_object_representations_v<RoundTripCase>);

class RoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTripTest, ForwardInverseIsIdentity) {
  const auto& [n, levels, filter, name_tag] = GetParam();
  const Plane original = random_plane(n, 42);
  Plane p = original;
  forward2d(p, levels, filter);
  inverse2d(p, levels, filter);
  EXPECT_LT(max_abs_diff(p, original), 1e-8);
}

TEST_P(RoundTripTest, EnergyPreservedByOrthonormalTransform) {
  const auto& [n, levels, filter, name_tag] = GetParam();
  Plane p = random_plane(n, 7);
  const double e0 = energy(p);
  forward2d(p, levels, filter);
  EXPECT_NEAR(energy(p), e0, 1e-6 * e0);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RoundTripTest,
    ::testing::Values(
        RoundTripCase{8, 1, Filter::kHaar, {0x9F, 0xF7, 0x91}},
        RoundTripCase{8, 3, Filter::kHaar, {0x00, 0x00, 0x00}},
        RoundTripCase{32, 5, Filter::kHaar, {0x3F, 0xC4, 0xBB}},
        RoundTripCase{64, 2, Filter::kHaar, {0xE0, 0x3C, 0x7C}},
        RoundTripCase{8, 1, Filter::kDaub4, {0xFF, 0xFF, 0xFF}},
        RoundTripCase{8, 2, Filter::kDaub4, {0x00, 0x00, 0x00}},
        RoundTripCase{32, 4, Filter::kDaub4, {0xAF, 0xC3, 0xBB}},
        RoundTripCase{64, 3, Filter::kDaub4, {0x7F, 0x00, 0x00}},
        RoundTripCase{128, 6, Filter::kDaub4, {0x9F, 0xF7, 0x91}}));

TEST(Wavelet2D, ConstantImageConcentratesInApproximation) {
  Plane p(16);
  for (auto& v : p.data()) v = 5.0;
  forward2d(p, 2, Filter::kHaar);
  // All detail coefficients vanish; only the 4x4 approximation is nonzero.
  for (int r = 0; r < 16; ++r) {
    for (int c = 0; c < 16; ++c) {
      if (r < 4 && c < 4) {
        EXPECT_NEAR(p.at(r, c), 5.0 * 4.0, 1e-9);  // scaled by 2^levels
      } else {
        EXPECT_NEAR(p.at(r, c), 0.0, 1e-9);
      }
    }
  }
}

TEST(Wavelet2D, SmoothImageCompactsEnergy) {
  Plane p = synthetic_scene(64, 3);
  const double total = energy(p);
  forward2d(p, 4, Filter::kDaub4);
  // Energy compaction: the top 10% of coefficients by magnitude carry the
  // bulk of the energy of a terrain-like image.
  std::vector<double> sq;
  sq.reserve(p.data().size());
  for (const double v : p.data()) sq.push_back(v * v);
  std::sort(sq.begin(), sq.end(), std::greater<>());
  double top = 0;
  for (std::size_t i = 0; i < sq.size() / 10; ++i) top += sq[i];
  EXPECT_GT(top / total, 0.95);
}

TEST(Wavelet2D, RejectsNonPowerOfTwo) {
  Plane p(12);
  EXPECT_THROW(forward2d(p, 1, Filter::kHaar), std::invalid_argument);
}

TEST(Wavelet2D, RejectsTooManyLevels) {
  Plane p(8);
  EXPECT_THROW(forward2d(p, 5, Filter::kHaar), std::invalid_argument);
}

TEST(Wavelet2D, FlopsCounted) {
  Plane p = random_plane(32, 1);
  const auto stats = forward2d(p, 3, Filter::kDaub4);
  EXPECT_GT(stats.flops, 0u);
}

TEST(SyntheticScene, PixelsIn8BitRange) {
  const Plane p = synthetic_scene(128, 99);
  for (const double v : p.data()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 255.0);
  }
}

TEST(SyntheticScene, DeterministicInSeed) {
  const Plane a = synthetic_scene(64, 5);
  const Plane b = synthetic_scene(64, 5);
  const Plane c = synthetic_scene(64, 6);
  EXPECT_EQ(max_abs_diff(a, b), 0.0);
  EXPECT_GT(max_abs_diff(a, c), 0.0);
}

TEST(SyntheticScene, HasStructureNotJustNoise) {
  const Plane p = synthetic_scene(128, 21);
  // Neighbouring pixels correlate strongly in a terrain-like image.
  double num = 0, den = 0, mean = 0;
  for (const double v : p.data()) mean += v;
  mean /= static_cast<double>(p.data().size());
  for (int r = 0; r < 128; ++r) {
    for (int c = 0; c + 1 < 128; ++c) {
      num += (p.at(r, c) - mean) * (p.at(r, c + 1) - mean);
      den += (p.at(r, c) - mean) * (p.at(r, c) - mean);
    }
  }
  EXPECT_GT(num / den, 0.5);
}

TEST(WaveletApp, RegistrationRecoversKnownShift) {
  WaveletConfig cfg;
  cfg.image_size = 128;
  cfg.levels = 4;
  cfg.reference_count = 1;
  cfg.search_coarse = 16;
  cfg.search_mid = 8;
  cfg.search_fine = 4;
  Rng rng(1);
  const auto result = run_wavelet(cfg, 25.0, rng);
  // The reference is the scene shifted by (3, -5); the pyramid search
  // reports the displacement it found. Scaled across levels the exact
  // value depends on the grid, but it must be small and non-zero-cost:
  EXPECT_GT(result.native_flops, 0u);
  EXPECT_LE(std::abs(result.best_shift_row), 8);
  EXPECT_LE(std::abs(result.best_shift_col), 8);
}

TEST(WaveletApp, TraceReadsTheImageFile) {
  WaveletConfig cfg;
  cfg.image_size = 128;
  cfg.levels = 4;
  cfg.reference_count = 1;
  Rng rng(2);
  const auto result = run_wavelet(cfg, 25.0, rng);
  const auto& t = result.trace;
  EXPECT_EQ(t.app_name, "wavelet");
  // Input read covers the whole image file.
  const std::uint64_t input_bytes = 128u * 128 + 512;
  EXPECT_EQ(t.total_read_bytes(), input_bytes);
  EXPECT_GT(t.total_write_bytes(), 0u);
  EXPECT_GT(t.image_pages(), 0u);
  EXPECT_GT(t.anon_pages(), 0u);
}

TEST(WaveletApp, EnergyBookkeepingConsistent) {
  WaveletConfig cfg;
  cfg.image_size = 64;
  cfg.levels = 3;
  cfg.reference_count = 1;
  cfg.search_coarse = 4;
  cfg.search_mid = 4;
  cfg.search_fine = 2;
  Rng rng(3);
  const auto result = run_wavelet(cfg, 25.0, rng);
  EXPECT_NEAR(result.haar_energy, result.input_energy,
              1e-6 * result.input_energy);
  EXPECT_NEAR(result.d4_energy, result.input_energy,
              1e-6 * result.input_energy);
  EXPECT_GT(result.compression_ratio, 0.1);
  EXPECT_LT(result.compression_ratio, 1.0);
}

}  // namespace
}  // namespace ess::apps::wavelet
