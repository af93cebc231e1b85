#include "apps/nbody/nbody_app.hpp"
#include "apps/nbody/octree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

namespace ess::apps::nbody {
namespace {

std::vector<Body> plummer(int n, std::uint64_t seed) {
  NBodySim sim(n, seed);
  return sim.bodies();
}

TEST(Octree, RootCountsEveryBody) {
  const auto bodies = plummer(500, 1);
  Octree tree;
  tree.build(bodies);
  EXPECT_EQ(tree.root().count, 500);
}

TEST(Octree, TotalMassMatches) {
  const auto bodies = plummer(300, 2);
  Octree tree;
  tree.build(bodies);
  double mass = 0;
  for (const auto& b : bodies) mass += b.mass;
  // Root COM mass: leaves contribute via finalize only when internal, so
  // check via a two-body force consistency instead for leaves; for 300
  // bodies the root is internal.
  EXPECT_NEAR(tree.root().mass, mass, 1e-9);
}

TEST(Octree, NodeCountBounded) {
  const auto bodies = plummer(1000, 3);
  Octree tree;
  tree.build(bodies);
  EXPECT_GE(tree.node_count(), 1000u / 8);
  EXPECT_LE(tree.node_count(), 20'000u);
}

TEST(Octree, ThetaZeroMatchesDirectSummation) {
  // With theta = 0 no cell is ever accepted: the walk enumerates every
  // other body exactly, so the result equals the O(N^2) sum.
  auto bodies = plummer(64, 4);
  Octree tree;
  tree.build(bodies);
  const std::uint64_t inter = tree.accelerations(bodies, 0.0, 0.05);
  for (int i = 0; i < 64; ++i) {
    Vec3 direct;
    for (int j = 0; j < 64; ++j) {
      if (j == i) continue;
      const Vec3 d = bodies[static_cast<std::size_t>(j)].pos -
                     bodies[static_cast<std::size_t>(i)].pos;
      const double r2 = d.norm2() + 0.05 * 0.05;
      const double inv_r = 1.0 / std::sqrt(r2);
      direct += d * (bodies[static_cast<std::size_t>(j)].mass * inv_r *
                     inv_r * inv_r);
    }
    const Vec3 a = bodies[static_cast<std::size_t>(i)].acc;
    EXPECT_NEAR(a.x, direct.x, 1e-9);
    EXPECT_NEAR(a.y, direct.y, 1e-9);
    EXPECT_NEAR(a.z, direct.z, 1e-9);
  }
  EXPECT_EQ(inter, 64u * 63u);
}

TEST(Octree, LargerThetaEvaluatesFewerInteractions) {
  auto bodies = plummer(2048, 5);
  Octree tree;
  tree.build(bodies);
  auto count = [&](double theta) {
    return tree.accelerations(bodies, theta, 0.05);
  };
  const auto exact = count(0.0);
  const auto coarse = count(0.8);
  const auto coarser = count(1.2);
  EXPECT_LT(coarse, exact);
  EXPECT_LT(coarser, coarse);
}

TEST(Octree, ApproximationErrorSmallForModestTheta) {
  auto approx = plummer(512, 6);
  auto exact = approx;
  Octree tree;
  tree.build(approx);
  tree.accelerations(approx, 0.5, 0.05);
  tree.accelerations(exact, 0.0, 0.05);
  double max_rel = 0;
  for (std::size_t i = 0; i < approx.size(); ++i) {
    const double diff = std::sqrt((approx[i].acc - exact[i].acc).norm2());
    const double norm = std::sqrt(exact[i].acc.norm2()) + 1e-12;
    max_rel = std::max(max_rel, diff / norm);
  }
  EXPECT_LT(max_rel, 0.15);  // theta=0.5 keeps force errors modest
}

TEST(Octree, CoincidentBodiesAllGetAnAcceleration) {
  // Five bodies at one point can never be separated: insertion merges
  // them at the depth limit into one leaf, which holds only one of them.
  // The walk must still set every body's acc.
  auto bodies = plummer(200, 11);
  const Vec3 spot{0.25, -0.5, 0.75};
  for (std::size_t i = 10; i < 15; ++i) bodies[i].pos = spot;
  const double nan = std::nan("");
  for (auto& b : bodies) b.acc = Vec3{nan, nan, nan};
  Octree tree;
  tree.build(bodies);
  EXPECT_EQ(tree.root().count, 200);
  const std::uint64_t inter = tree.accelerations(bodies, 0.6, 0.05);
  EXPECT_GT(inter, 0u);
  for (const auto& b : bodies) {
    EXPECT_TRUE(std::isfinite(b.acc.x) && std::isfinite(b.acc.y) &&
                std::isfinite(b.acc.z));
    EXPECT_GT(b.acc.norm2(), 0.0);
  }
  // The coincident bodies see the same cells from the same point.
  for (std::size_t i = 11; i < 15; ++i) {
    EXPECT_EQ(bodies[i].acc.x, bodies[10].acc.x);
    EXPECT_EQ(bodies[i].acc.y, bodies[10].acc.y);
    EXPECT_EQ(bodies[i].acc.z, bodies[10].acc.z);
  }
}

TEST(Octree, BoardMakesNoDifference) {
  // Posted in blocks (here all run by the caller), the pass sets the same
  // bits and counts the same interactions as one walk.
  auto walked = plummer(1000, 12);
  auto posted = walked;
  Octree tree;
  tree.build(walked);
  util::ForkJoinBoard board;
  EXPECT_EQ(tree.accelerations(walked, 0.6, 0.05),
            tree.accelerations(posted, 0.6, 0.05, &board));
  for (std::size_t i = 0; i < walked.size(); ++i) {
    EXPECT_EQ(walked[i].acc.x, posted[i].acc.x);
    EXPECT_EQ(walked[i].acc.y, posted[i].acc.y);
    EXPECT_EQ(walked[i].acc.z, posted[i].acc.z);
  }
}

TEST(NBodySim, MomentumApproximatelyConserved) {
  NBodySim sim(512, 7);
  const Vec3 p0 = sim.stats().momentum;
  for (int i = 0; i < 5; ++i) sim.step(0.01, 0.6, 0.05);
  const Vec3 p1 = sim.stats().momentum;
  // Tree forces are not exactly symmetric, but drift must stay small
  // relative to the typical momentum scale (bodies have mass 1/N, v~0.1).
  EXPECT_LT(std::sqrt((p1 - p0).norm2()), 0.05);
}

TEST(NBodySim, InteractionsAccumulate) {
  NBodySim sim(256, 8);
  const auto first = sim.step(0.01, 0.7, 0.05);
  EXPECT_GT(first, 0u);
  sim.step(0.01, 0.7, 0.05);
  EXPECT_GT(sim.total_interactions(), first);
}

TEST(NBodySim, EnergyStaysBounded) {
  NBodySim sim(256, 9);
  for (int i = 0; i < 10; ++i) sim.step(0.01, 0.7, 0.05);
  const auto st = sim.stats();
  EXPECT_TRUE(std::isfinite(st.kinetic));
  EXPECT_LT(st.max_speed, 100.0);  // no numerical explosion
}

TEST(NBodyApp, TraceHasCheckpointsAndFinalSnapshot) {
  NBodyConfig cfg;
  cfg.bodies = 512;
  cfg.steps = 8;
  cfg.checkpoint_every = 4;
  Rng rng(1);
  const auto result = run_nbody(cfg, 25.0, rng);
  EXPECT_GT(result.total_interactions, 0u);
  EXPECT_GT(result.modelled_compute, 0u);
  const auto& t = result.trace;
  EXPECT_EQ(t.app_name, "nbody");
  // 2 checkpoints of 2 KB + the final 16 KB snapshot.
  EXPECT_EQ(t.total_write_bytes(), 2u * 2048 + 16 * 1024);
  EXPECT_EQ(t.total_read_bytes(), 0u);  // a simulation with no input data
}

TEST(NBodyApp, ModelledHeapIsPinned) {
  // Two body arrays of 80 B bodies, two tree arenas of 2 x 104 B per body,
  // and the heap slack: the footprint the traces and goldens were made
  // with, whatever the tree code's own node layout.
  const NBodyConfig cfg;
  Rng rng(1);
  const auto result = assemble(cfg, NBodyProfile{}, 25.0, rng);
  EXPECT_EQ(result.trace.anon_bytes, 2u * 8192 * 80 + 2u * 2 * 8192 * 104 +
                                         2u * 1024 * 1024);
  EXPECT_EQ(result.trace.anon_bytes, 6'815'744u);
}

TEST(NBodyApp, DefaultConfigMatchesPaperScale) {
  const NBodyConfig cfg;
  EXPECT_EQ(cfg.bodies, 8192);  // "8K particles per processor"
}

class ThetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ThetaSweep, InteractionCountScalesSubQuadratically) {
  NBodySim sim(1024, 10);
  const auto inter = sim.step(0.01, GetParam(), 0.05);
  EXPECT_LT(inter, 1024ull * 1023ull);
  EXPECT_GT(inter, 1024u);
}

INSTANTIATE_TEST_SUITE_P(Thetas, ThetaSweep,
                         ::testing::Values(0.4, 0.6, 0.8, 1.0));

}  // namespace
}  // namespace ess::apps::nbody
