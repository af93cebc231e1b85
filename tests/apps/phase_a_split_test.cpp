// The phase-A split: one numerics profile, assembled for any Rng seed and
// CPU model, gives exactly what the one-shot run_* drivers give — result
// scalars, op trace and the Rng stream position after assembly.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "core/presets.hpp"

namespace ess::apps {
namespace {

// (Rng seed, cpu_mflops): two seeds and two CPU models.
constexpr std::pair<std::uint64_t, double> kCases[] = {
    {0x1996, 25.0}, {0x1996, 40.0}, {7, 25.0}, {7, 40.0}};

TEST(PhaseASplit, PpmAssemblyOfOneProfileMatchesRunPpm) {
  const auto cfg = core::fast_study_config().ppm;
  const ppm::PpmProfile profile = ppm::numerics(cfg);
  ASSERT_EQ(profile.step_flops.size(), static_cast<std::size_t>(cfg.steps));
  for (const auto& [seed, mflops] : kCases) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " mflops "
                                      << mflops);
    Rng a(seed), b(seed);
    const auto whole = ppm::run_ppm(cfg, mflops, a);
    const auto split = ppm::assemble(cfg, profile, mflops, b);
    EXPECT_EQ(whole.final_mass, split.final_mass);
    EXPECT_EQ(whole.final_energy, split.final_energy);
    EXPECT_EQ(whole.max_density, split.max_density);
    EXPECT_EQ(whole.native_flops, split.native_flops);
    EXPECT_EQ(whole.modelled_compute, split.modelled_compute);
    EXPECT_GT(whole.trace.ops.size(), 0u);
    EXPECT_TRUE(whole.trace == split.trace);
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(PhaseASplit, WaveletAssemblyOfOneProfileMatchesRunWavelet) {
  const auto cfg = core::fast_study_config().wavelet;
  const wavelet::WaveletProfile profile = wavelet::numerics(cfg);
  EXPECT_GT(profile.payload_bytes, 0u);
  for (const auto& [seed, mflops] : kCases) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " mflops "
                                      << mflops);
    Rng a(seed), b(seed);
    const auto whole = wavelet::run_wavelet(cfg, mflops, a);
    const auto split = wavelet::assemble(cfg, profile, mflops, b);
    EXPECT_EQ(whole.input_energy, split.input_energy);
    EXPECT_EQ(whole.haar_energy, split.haar_energy);
    EXPECT_EQ(whole.d4_energy, split.d4_energy);
    EXPECT_EQ(whole.compression_ratio, split.compression_ratio);
    EXPECT_EQ(whole.bits_per_pixel, split.bits_per_pixel);
    EXPECT_EQ(whole.psnr_db, split.psnr_db);
    EXPECT_EQ(whole.best_shift_row, split.best_shift_row);
    EXPECT_EQ(whole.best_shift_col, split.best_shift_col);
    EXPECT_EQ(whole.payload_bytes, split.payload_bytes);
    EXPECT_EQ(whole.native_flops, split.native_flops);
    EXPECT_EQ(whole.modelled_compute, split.modelled_compute);
    EXPECT_GT(whole.trace.ops.size(), 0u);
    EXPECT_TRUE(whole.trace == split.trace);
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(PhaseASplit, NBodyAssemblyOfOneProfileMatchesRunNBody) {
  const auto cfg = core::fast_study_config().nbody;
  const nbody::NBodyProfile profile = nbody::numerics(cfg);
  ASSERT_EQ(profile.step_interactions.size(),
            static_cast<std::size_t>(cfg.steps));
  for (const auto& [seed, mflops] : kCases) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " mflops "
                                      << mflops);
    Rng a(seed), b(seed);
    const auto whole = nbody::run_nbody(cfg, mflops, a);
    const auto split = nbody::assemble(cfg, profile, mflops, b);
    EXPECT_EQ(whole.total_interactions, split.total_interactions);
    EXPECT_EQ(whole.final_kinetic, split.final_kinetic);
    EXPECT_EQ(whole.momentum_drift, split.momentum_drift);
    EXPECT_EQ(whole.native_flops, split.native_flops);
    EXPECT_EQ(whole.modelled_compute, split.modelled_compute);
    EXPECT_GT(whole.trace.ops.size(), 0u);
    EXPECT_TRUE(whole.trace == split.trace);
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(PhaseASplit, CpuModelScalesComputeNotNumerics) {
  const auto cfg = core::fast_study_config().nbody;
  const nbody::NBodyProfile profile = nbody::numerics(cfg);
  Rng a(1), b(1);
  const auto fast = nbody::assemble(cfg, profile, 50.0, a);
  const auto slow = nbody::assemble(cfg, profile, 25.0, b);
  EXPECT_EQ(fast.native_flops, slow.native_flops);
  EXPECT_LT(fast.modelled_compute, slow.modelled_compute);
}

}  // namespace
}  // namespace ess::apps
