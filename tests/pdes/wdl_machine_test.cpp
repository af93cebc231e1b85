// WDL + the multi-node machine: SPMD programs described as text files,
// run at one shard (the serial reference) and at one shard per node.
#include <gtest/gtest.h>

#include "pdes/machine.hpp"
#include "workload/wdl.hpp"

namespace ess::pdes {
namespace {

MachineConfig quiet_machine(int nodes, std::size_t shards) {
  MachineConfig cfg;
  cfg.nodes = nodes;
  cfg.shards = shards;
  cfg.jobs = 1;
  cfg.node.daemons.enabled = false;
  return cfg;
}

TEST(WdlMachine, TextDescribedRingPassesAToken) {
  const int n = 4;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{n}}) {
    Machine m(quiet_machine(n, shards));
    m.fabric().set_world_size(n);
    Rng rng(1);
    for (int r = 0; r < n; ++r) {
      std::string wdl = "workload ring\n";
      if (r == 0) {
        // Rank 0 injects the token, then receives it back.
        wdl += "send 1 128 42\n";
        wdl += "recv " + std::to_string(n - 1) + " 42\n";
      } else {
        wdl += "recv " + std::to_string(r - 1) + " 42\n";
        wdl += "send " + std::to_string((r + 1) % n) + " 128 42\n";
      }
      wdl += "compute 0.01\n";
      m.spawn_rank(r, workload::parse_wdl(wdl, rng), r);
    }
    EXPECT_TRUE(m.run_until_all_done(sec(100))) << "shards=" << shards;
    const auto stats = m.fabric().stats();
    EXPECT_EQ(stats.sends, static_cast<std::uint64_t>(n))
        << "shards=" << shards;
    EXPECT_EQ(stats.recvs, static_cast<std::uint64_t>(n))
        << "shards=" << shards;
  }
}

TEST(WdlMachine, BarrierDirectiveSynchronizes) {
  // A bare `barrier` is a world barrier (participants 0).
  const int n = 3;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{n}}) {
    Machine m(quiet_machine(n, shards));
    m.fabric().set_world_size(n);
    Rng rng(2);
    std::vector<mm::Pid> pids;
    for (int r = 0; r < n; ++r) {
      const std::string wdl = "workload sync\ncompute " +
                              std::to_string(r + 1) + "\nbarrier\n";
      pids.push_back(m.spawn_rank(r, workload::parse_wdl(wdl, rng), r));
    }
    const SimTime t0 = m.now();
    ASSERT_TRUE(m.run_until_all_done(sec(100))) << "shards=" << shards;
    for (int r = 0; r < n; ++r) {
      const auto& p = m.node(r).process(pids[static_cast<std::size_t>(r)]);
      // Gated by the slowest rank.
      EXPECT_GE(p.finish_time - t0, sec(3)) << "shards=" << shards;
    }
  }
}

}  // namespace
}  // namespace ess::pdes
