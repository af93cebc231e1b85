// N-body phase A, pinned bit for bit: the interaction counts and result
// scalars of numerics() at the fast and the paper configuration, with the
// force passes walked on one thread and posted to a board with helpers.
// The constants were taken from the explicit-stack walk the flattened walk
// replaced, so any change to a body's summation order shows here.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/nbody/nbody_app.hpp"
#include "util/fork_join.hpp"

namespace ess::apps::nbody {
namespace {

struct Fingerprint {
  const char* name;
  int bodies;
  int steps;
  std::uint64_t total_interactions;
  std::uint64_t final_kinetic_bits;
  std::uint64_t momentum_drift_bits;
  std::uint64_t step_hash;  // FNV-1a-64, one round per step count
};

void PrintTo(const Fingerprint& fp, std::ostream* os) { *os << fp.name; }

std::uint64_t fnv1a(const std::vector<std::uint64_t>& xs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint64_t x : xs) {
    h ^= x;
    h *= 0x100000001b3ull;
  }
  return h;
}

NBodyProfile run(const Fingerprint& fp, int helpers) {
  NBodyNumerics cfg;
  cfg.bodies = fp.bodies;
  cfg.steps = fp.steps;
  if (helpers == 0) return numerics(cfg);
  util::ForkJoinBoard board;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int h = 0; h < helpers; ++h) {
    threads.emplace_back(
        [&] { board.help_until([&] { return done.load(); }); });
  }
  const NBodyProfile p = numerics(cfg, &board);
  done = true;
  board.wake();
  for (auto& t : threads) t.join();
  return p;
}

class NBodyFingerprint
    : public ::testing::TestWithParam<std::tuple<Fingerprint, int>> {};

TEST_P(NBodyFingerprint, MatchesTheStackWalk) {
  const auto& [fp, helpers] = GetParam();
  const NBodyProfile p = run(fp, helpers);
  ASSERT_EQ(p.step_interactions.size(), static_cast<std::size_t>(fp.steps));
  EXPECT_EQ(p.total_interactions, fp.total_interactions);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p.final_kinetic),
            fp.final_kinetic_bits);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(p.momentum_drift),
            fp.momentum_drift_bits);
  EXPECT_EQ(fnv1a(p.step_interactions), fp.step_hash);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, NBodyFingerprint,
    ::testing::Combine(
        ::testing::Values(
            Fingerprint{"Fast", 1024, 4, 1405935, 0x3f8e0347ebf96a88,
                        0x3ed1cec24b26fb44, 0x4894c912df50a7b6},
            Fingerprint{"Paper", 8192, 60, 269372555, 0x3f9e8ccd3fe8baa5,
                        0x3ef763dac9abd6ee, 0xc8225f2bb1e17f8d}),
        ::testing::Values(0, 2)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param)) + "Helpers";
    });

}  // namespace
}  // namespace ess::apps::nbody
