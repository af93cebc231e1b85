// The parallel workload generators, alone and run on the multi-node
// machine at one shard (the serial reference) and at one shard per node.
#include "pvm/parallel_apps.hpp"

#include <gtest/gtest.h>

#include "pdes/machine.hpp"

namespace ess::pvm {
namespace {

/// Default node kernels (daemons on), `shards` engines run inline.
pdes::MachineConfig machine_cfg(int nodes, std::size_t shards) {
  pdes::MachineConfig cfg;
  cfg.nodes = nodes;
  cfg.shards = shards;
  cfg.jobs = 1;
  return cfg;
}

apps::ppm::PpmConfig small_ppm() {
  apps::ppm::PpmConfig cfg;
  cfg.nx = 32;
  cfg.ny = 64;
  cfg.steps = 4;
  cfg.summary_every = 2;
  cfg.image_warm_fraction = 1.0;
  return cfg;
}

apps::nbody::NBodyConfig small_nbody() {
  apps::nbody::NBodyConfig cfg;
  cfg.bodies = 512;
  cfg.steps = 3;
  cfg.checkpoint_every = 2;
  cfg.image_warm_fraction = 1.0;
  return cfg;
}

apps::wavelet::WaveletConfig small_wavelet() {
  apps::wavelet::WaveletConfig cfg;
  cfg.image_size = 64;
  cfg.levels = 3;
  cfg.reference_count = 1;
  cfg.search_coarse = 4;
  cfg.search_mid = 4;
  cfg.search_fine = 2;
  cfg.image_bytes = 1024 * 1024;
  cfg.image_warm_fraction = 1.0;
  return cfg;
}

int count_sends(const workload::OpTrace& t) {
  int n = 0;
  for (const auto& op : t.ops) {
    if (std::holds_alternative<workload::SendOp>(op)) ++n;
  }
  return n;
}

TEST(ParallelApps, PpmOnlyRankZeroWritesFiles) {
  Rng rng(1);
  const auto traces = parallel_ppm(small_ppm(), 4, 25.0, rng);
  ASSERT_EQ(traces.size(), 4u);
  EXPECT_FALSE(traces[0].files.empty());
  for (int r = 1; r < 4; ++r) {
    EXPECT_TRUE(traces[static_cast<std::size_t>(r)].files.empty());
    EXPECT_GT(count_sends(traces[static_cast<std::size_t>(r)]), 0);
  }
}

TEST(ParallelApps, PpmInteriorRanksHaveTwoNeighbours) {
  Rng rng(1);
  const auto traces = parallel_ppm(small_ppm(), 4, 25.0, rng);
  // Interior ranks exchange with two neighbours, edges with one: interior
  // ranks therefore carry more sends.
  EXPECT_GT(count_sends(traces[1]), count_sends(traces[0]));
}

TEST(ParallelApps, MachineRunsParallelPpmToCompletion) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    Rng rng(2);
    auto traces = parallel_ppm(small_ppm(), 3, 25.0, rng);
    pdes::Machine m(machine_cfg(3, shards));
    m.fabric().set_world_size(3);
    for (int r = 0; r < 3; ++r) {
      m.stage(r, traces[static_cast<std::size_t>(r)]);
    }
    const SimTime t0 = m.now();
    for (int r = 0; r < 3; ++r) {
      m.spawn_rank(r, std::move(traces[static_cast<std::size_t>(r)]), r);
    }
    ASSERT_TRUE(m.run_until_all_done(t0 + sec(2000))) << "shards=" << shards;
    const auto stats = m.fabric().stats();
    EXPECT_GT(stats.sends, 0u) << "shards=" << shards;
    EXPECT_GT(stats.barriers_completed, 0u) << "shards=" << shards;
  }
}

TEST(ParallelApps, MachineRunsParallelNBodyLockstep) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    Rng rng(3);
    auto traces = parallel_nbody(small_nbody(), 4, 25.0, rng);
    pdes::Machine m(machine_cfg(4, shards));
    m.fabric().set_world_size(4);
    std::vector<mm::Pid> pids;
    for (int r = 0; r < 4; ++r) {
      m.stage(r, traces[static_cast<std::size_t>(r)]);
    }
    for (int r = 0; r < 4; ++r) {
      pids.push_back(
          m.spawn_rank(r, std::move(traces[static_cast<std::size_t>(r)]), r));
    }
    ASSERT_TRUE(m.run_until_all_done(m.now() + sec(4000)))
        << "shards=" << shards;
    // Lockstep: one barrier per step plus the startup barrier.
    EXPECT_EQ(m.fabric().stats().barriers_completed,
              static_cast<std::uint64_t>(small_nbody().steps) + 1)
        << "shards=" << shards;
    // All ranks finish within one barrier release of each other.
    SimTime lo = ~SimTime{0}, hi = 0;
    for (int r = 0; r < 4; ++r) {
      const auto f = m.node(r).process(pids[static_cast<std::size_t>(r)])
                         .finish_time;
      lo = std::min(lo, f);
      hi = std::max(hi, f);
    }
    EXPECT_LT(hi - lo, sec(30)) << "shards=" << shards;
  }
}

TEST(ParallelApps, NBodyRanksFollowTheSequentialNumerics) {
  const auto cfg = small_nbody();
  Rng rng(5);
  const auto traces = parallel_nbody(cfg, 2, 25.0, rng);
  // Each step computes the sequential run's interactions, in six slices.
  SimTime expect = 0;
  for (const auto inter : apps::nbody::numerics(cfg).step_interactions) {
    const double flops = static_cast<double>(inter) *
                             cfg.flops_per_interaction +
                         static_cast<double>(cfg.bodies) * 60.0 * 13.0;
    expect += 6 * (static_cast<SimTime>(flops / 25.0) / 6);
  }
  for (const auto& t : traces) {
    EXPECT_EQ(t.total_compute(), expect);
    // Bodies (80 B), one tree arena of 2 x 104 B per body, heap slack and
    // the allgather buffers: the footprint the traces were made with.
    EXPECT_EQ(t.anon_bytes, 512u * 80 + 2u * 512 * 104 + 2u * 1024 * 1024 +
                                512u * 1024);
  }
}

TEST(ParallelApps, MachineRunsParallelWaveletScatterGather) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    Rng rng(4);
    auto traces = parallel_wavelet(small_wavelet(), 3, 25.0, rng);
    pdes::Machine m(machine_cfg(3, shards));
    m.fabric().set_world_size(3);
    for (int r = 0; r < 3; ++r) {
      m.stage(r, traces[static_cast<std::size_t>(r)]);
    }
    m.ioctl_all(driver::TraceLevel::kStandard);
    const SimTime t0 = m.now();
    for (int r = 0; r < 3; ++r) {
      m.spawn_rank(r, std::move(traces[static_cast<std::size_t>(r)]), r);
    }
    ASSERT_TRUE(m.run_until_all_done(t0 + sec(4000))) << "shards=" << shards;
    m.run_for(sec(40));  // let write-behind drain
    const auto node_traces = m.collect("pwavelet", t0);
    // Rank 0's node sees the input read + coefficient writes: strictly
    // more I/O than the compute-only nodes.
    EXPECT_GT(node_traces[0].size(), node_traces[1].size())
        << "shards=" << shards;
    EXPECT_GT(node_traces[0].size(), node_traces[2].size())
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace ess::pvm
