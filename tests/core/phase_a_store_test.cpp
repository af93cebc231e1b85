// core::PhaseAStore: phase-A numerics computed once per distinct app
// config, shared across threads and Studies, errors included.
#include "core/phase_a_store.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "core/presets.hpp"
#include "core/study.hpp"

namespace ess::core {
namespace {

TEST(PhaseAStore, EightThreadsAskingForOneKeyComputeItOnce) {
  const auto cfg = fast_study_config();
  PhaseAStore store;
  std::vector<const apps::nbody::NBodyProfile*> seen(8);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back(
        [&, i] { seen[i] = &store.nbody(cfg.nbody).get(); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.computations(), 1u);
  for (const auto* p : seen) EXPECT_EQ(p, seen.front());
  EXPECT_GT(seen.front()->total_interactions, 0u);
}

TEST(PhaseAStore, WaitersHelpTheNBodyRunAndGetItsProfile) {
  // Threads that find the run started work its force blocks in await();
  // the profile is the one a lone run computes, bit for bit.
  apps::nbody::NBodyNumerics key;
  key.bodies = 2048;
  key.steps = 6;
  const auto alone = apps::nbody::numerics(key);
  PhaseAStore store;
  std::vector<const apps::nbody::NBodyProfile*> seen(3);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back(
        [&, i] { seen[i] = &store.await(store.nbody(key)); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.computations(), 1u);
  for (const auto* p : seen) EXPECT_EQ(p, seen.front());
  EXPECT_EQ(seen.front()->step_interactions, alone.step_interactions);
  EXPECT_EQ(seen.front()->final_kinetic, alone.final_kinetic);
  EXPECT_EQ(seen.front()->momentum_drift, alone.momentum_drift);
}

TEST(PhaseAStore, KeysFollowTheNumericsConfigOnly) {
  const StudyConfig a = fast_study_config();
  PhaseAStore store;
  const auto* ppm = &store.ppm(a.ppm).get();
  const auto* nbody = &store.nbody(a.nbody).get();
  ASSERT_EQ(store.computations(), 2u);

  // Seed, CPU model and image size shape the trace, not the numerics.
  StudyConfig b = a;
  b.seed += 1;
  b.node.cpu_mflops *= 2;
  b.ppm.image_bytes *= 2;
  b.nbody.image_bytes *= 2;
  EXPECT_EQ(&store.ppm(b.ppm).get(), ppm);
  EXPECT_EQ(&store.nbody(b.nbody).get(), nbody);
  EXPECT_EQ(store.computations(), 2u);

  StudyConfig c = a;
  c.ppm.nx = 64;
  EXPECT_NE(&store.ppm(c.ppm).get(), ppm);
  EXPECT_EQ(store.computations(), 3u);

  StudyConfig d = a;
  d.nbody.seed += 1;
  EXPECT_NE(&store.nbody(d.nbody).get(), nbody);
  EXPECT_EQ(store.computations(), 4u);
}

TEST(PhaseAStore, NumericsExceptionReachesEveryWaiter) {
  apps::ppm::PpmNumerics bad;
  bad.nx = 2;  // smaller than the PPM stencil: the solver refuses it
  PhaseAStore store;
  std::vector<int> thrown(8, 0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < thrown.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        store.ppm(bad).get();
      } catch (const std::invalid_argument&) {
        thrown[i] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.computations(), 1u);
  for (int t : thrown) EXPECT_EQ(t, 1);
  EXPECT_THROW(store.ppm(bad).get(), std::invalid_argument);
  EXPECT_EQ(store.computations(), 1u);  // a failed key is not retried
}

TEST(PhaseAStore, StudiesOnOneStoreShareNumericsButNotTraces) {
  StudyConfig a = fast_study_config();
  StudyConfig b = a;
  b.seed = a.seed + 1;
  PhaseAStore store;
  Study sa(a, &store), sb(b, &store);
  const Artifacts& x = sa.artifacts();
  const Artifacts& y = sb.artifacts();
  EXPECT_EQ(store.computations(), 3u);
  EXPECT_EQ(x.nbody.total_interactions, y.nbody.total_interactions);
  EXPECT_EQ(x.wavelet.psnr_db, y.wavelet.psnr_db);
  EXPECT_FALSE(x.ppm.trace == y.ppm.trace);  // own Rng stream per Study

  Study alone(a);
  EXPECT_TRUE(alone.artifacts().ppm.trace == x.ppm.trace);
  EXPECT_TRUE(alone.artifacts().wavelet.trace == x.wavelet.trace);
  EXPECT_TRUE(alone.artifacts().nbody.trace == x.nbody.trace);
}

TEST(PhaseAStore, SingleRunsComputeOnlyTheirStreamPrefix) {
  const StudyConfig cfg = fast_study_config();
  PhaseAStore store;
  Study lazy(cfg, &store);
  lazy.run_single(AppKind::kPpm);
  EXPECT_EQ(store.computations(), 1u);
  lazy.run_single(AppKind::kWavelet);
  EXPECT_EQ(store.computations(), 2u);
  lazy.run_single(AppKind::kNBody);
  EXPECT_EQ(store.computations(), 3u);

  // Assembling the prefix piecewise draws the Rng positions of the
  // one-shot drivers run on one stream in the order PPM, wavelet, N-body.
  Rng rng(cfg.seed);
  const double mflops = cfg.node.cpu_mflops;
  const auto ppm = apps::ppm::run_ppm(cfg.ppm, mflops, rng);
  const auto wavelet = apps::wavelet::run_wavelet(cfg.wavelet, mflops, rng);
  const auto nbody = apps::nbody::run_nbody(cfg.nbody, mflops, rng);
  const Artifacts& l = lazy.artifacts();
  EXPECT_TRUE(ppm.trace == l.ppm.trace);
  EXPECT_TRUE(wavelet.trace == l.wavelet.trace);
  EXPECT_TRUE(nbody.trace == l.nbody.trace);
}

}  // namespace
}  // namespace ess::core
