// The multi-node machine: its message-passing primitives (send, tagged and
// any-source receive, barriers), per-node disks and common clock, and the
// PDES layer's core contract — per-node traces and merged ESST captures
// are byte-identical at ANY shard count and ANY worker count, including
// the serial reference (1 shard, inline pool).
#include "pdes/machine.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/parallel.hpp"
#include "pdes/fabric.hpp"
#include "telemetry/esst.hpp"
#include "workload/builder.hpp"

namespace ess::pdes {
namespace {

kernel::KernelConfig quiet_cfg() {
  kernel::KernelConfig cfg;
  cfg.daemons.enabled = false;
  return cfg;
}

MachineConfig machine_cfg(int nodes, std::size_t shards, std::size_t jobs,
                          kernel::KernelConfig node_cfg) {
  MachineConfig cfg;
  cfg.nodes = nodes;
  cfg.shards = shards;
  cfg.jobs = jobs;
  cfg.node = node_cfg;
  return cfg;
}

workload::OpTrace pingper(int peer, bool initiator) {
  workload::OpTraceBuilder b(initiator ? "ping" : "pong");
  b.compute(msec(10));
  if (initiator) {
    b.send(peer, 4096, 7);
    b.recv(peer, 8);
  } else {
    b.recv(peer, 7);
    b.send(peer, 4096, 8);
  }
  b.compute(msec(10));
  return std::move(b).build();
}

TEST(WindowMachine, PingPongAcrossShards) {
  Machine m(machine_cfg(2, 2, 2, quiet_cfg()));
  ASSERT_EQ(m.shard_count(), 2u);
  ASSERT_NE(m.shard_of(0), m.shard_of(1));
  m.fabric().set_world_size(2);
  m.spawn_rank(0, pingper(1, true), 0);
  m.spawn_rank(1, pingper(0, false), 1);
  EXPECT_TRUE(m.run_until_all_done(sec(100)));
  const auto stats = m.fabric().stats();
  EXPECT_EQ(stats.sends, 2u);
  EXPECT_EQ(stats.recvs, 2u);
  EXPECT_EQ(stats.bytes, 8192u);
}

TEST(WindowMachine, TaggedRecvMatchesAcrossShards) {
  Machine m(machine_cfg(2, 2, 2, quiet_cfg()));
  m.fabric().set_world_size(2);
  workload::OpTraceBuilder sender("s"), receiver("r");
  sender.send(1, 100, /*tag=*/5);
  sender.send(1, 100, /*tag=*/6);
  receiver.recv(0, 6);  // opposite order: tag matching must hold
  receiver.recv(0, 5);
  m.spawn_rank(0, std::move(sender).build(), 0);
  m.spawn_rank(1, std::move(receiver).build(), 1);
  EXPECT_TRUE(m.run_until_all_done(sec(100)));
}

TEST(WindowMachine, BarrierReleasesEveryEntrant) {
  // Staggered arrivals on three different shards; nobody may pass until
  // the last entrant arrives, and everybody must then finish.
  Machine m(machine_cfg(3, 3, 2, quiet_cfg()));
  m.fabric().set_world_size(3);
  const SimTime t0 = m.now();
  for (int r = 0; r < 3; ++r) {
    workload::OpTraceBuilder b("bar");
    b.compute(msec(10) * (r + 1));  // rank 2 arrives last, at ~30 ms
    b.barrier(3, 1);
    b.compute(msec(1));
    m.spawn_rank(r, std::move(b).build(), r);
  }
  ASSERT_TRUE(m.run_until_all_done(sec(100)));
  EXPECT_EQ(m.fabric().stats().barriers_completed, 1u);
  for (int r = 0; r < 3; ++r) {
    auto& n = m.node(r);
    const auto& p = n.process(n.pids().front());
    // Released no earlier than the last arrival.
    EXPECT_GE(p.finish_time - t0, msec(30));
  }
}

TEST(WindowMachine, DeadlockThrowsInsteadOfSpinning) {
  Machine m(machine_cfg(2, 2, 1, quiet_cfg()));
  m.fabric().set_world_size(2);
  workload::OpTraceBuilder a("a"), b("b");
  a.recv(1, 1);  // both sides receive, nobody sends
  b.recv(0, 1);
  m.spawn_rank(0, std::move(a).build(), 0);
  m.spawn_rank(1, std::move(b).build(), 1);
  EXPECT_THROW(m.run_until_all_done(sec(10)), std::logic_error);
}

// ---- the message-passing contract, at one shard and one per node --------
// Each case runs on the serial reference (shards = 1) and with every node
// on its own shard.

TEST(Fabric, MessageTransferTakesWireTime) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    Machine m(machine_cfg(2, shards, 1, quiet_cfg()));
    m.fabric().set_world_size(2);
    workload::OpTraceBuilder sender("s"), receiver("r");
    sender.send(1, 1'000'000, 1);  // 1 MB over ~2.3 MB/s: ~0.45 s
    receiver.recv(0, 1);
    m.spawn_rank(0, std::move(sender).build(), 0);
    m.spawn_rank(1, std::move(receiver).build(), 1);
    const SimTime t0 = m.now();
    ASSERT_TRUE(m.run_until_all_done(sec(100))) << "shards=" << shards;
    const auto& n = m.node(1);
    const auto& p = n.process(n.pids().front());
    EXPECT_GT(p.finish_time - t0, msec(300)) << "shards=" << shards;
  }
}

TEST(Fabric, AnySourceRecv) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    Machine m(machine_cfg(3, shards, 1, quiet_cfg()));
    m.fabric().set_world_size(3);
    workload::OpTraceBuilder a("a"), b("b"), c("c");
    a.send(2, 64, 1);
    b.send(2, 64, 1);
    c.recv(-1, 1);
    c.recv(-1, 1);
    m.spawn_rank(0, std::move(a).build(), 0);
    m.spawn_rank(1, std::move(b).build(), 1);
    m.spawn_rank(2, std::move(c).build(), 2);
    EXPECT_TRUE(m.run_until_all_done(sec(100))) << "shards=" << shards;
    EXPECT_EQ(m.fabric().stats().recvs, 2u) << "shards=" << shards;
  }
}

TEST(Fabric, SendToUnknownRankThrows) {
  Machine m(machine_cfg(1, 1, 1, quiet_cfg()));
  m.fabric().set_world_size(1);
  workload::OpTraceBuilder b("bad");
  b.send(5, 100, 0);
  // The lone rank starts (and faults) as soon as the world is complete.
  EXPECT_THROW(m.spawn_rank(0, std::move(b).build(), 0), std::out_of_range);
}

TEST(Fabric, OpsWithoutFabricThrow) {
  kernel::NodeKernel node(quiet_cfg());
  workload::OpTraceBuilder b("lonely");
  b.recv(0, 0);
  EXPECT_THROW(node.spawn(std::move(b).build()), std::logic_error);
}

TEST(Machine, NodesShareOneClock) {
  // Between public calls every node reads the machine's time, whichever
  // shard it lives on.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    Machine m(machine_cfg(4, shards, 1, quiet_cfg()));
    const SimTime t = m.now();
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(m.node(i).now(), t) << "shards=" << shards;
    }
    m.run_for(sec(5));
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(m.node(i).now(), t + sec(5)) << "shards=" << shards;
    }
  }
}

TEST(Machine, PerNodeDisksAreIndependent) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    Machine m(machine_cfg(2, shards, 1, quiet_cfg()));
    m.fabric().set_world_size(2);
    workload::OpTraceBuilder writer("writer"), idle("idle");
    const auto f = writer.output_file("/data/out");
    writer.append(f, 64 * 1024);
    idle.compute(msec(1));
    m.ioctl_all(driver::TraceLevel::kStandard);
    const SimTime t0 = m.now();
    m.spawn_rank(0, std::move(writer).build(), 0);
    m.spawn_rank(1, std::move(idle).build(), 1);
    ASSERT_TRUE(m.run_until_all_done(sec(100))) << "shards=" << shards;
    m.node(0).fsys().sync();
    m.run_for(sec(2));
    auto traces = m.collect("independent", t0);
    EXPECT_GT(traces[0].size(), 0u) << "shards=" << shards;
    // Node 1 never touched its disk.
    EXPECT_EQ(traces[1].size(), 0u) << "shards=" << shards;
  }
}

// ---- determinism across partitionings ------------------------------------

/// A small SPMD ring job with real disk I/O: every rank pages in a warmed
/// image, computes with a per-rank skew, ghost-exchanges around the ring,
/// reads a staged input, appends to its own output file and barriers each
/// step. Daemons stay enabled so the traces carry the background I/O whose
/// timing would expose any cross-shard nondeterminism; the warmed image
/// makes staging itself advance simulated time, which once skewed the
/// whole run by whichever nodes shared a shard.
workload::OpTrace ring_rank(int rank, int n, int steps) {
  workload::OpTraceBuilder b("ring");
  b.set_image_bytes(256 * 1024);
  b.set_image_warm_fraction(0.5);
  const auto in = b.input_file("/data/ring.in", 128 * 1024);
  const auto out = b.output_file("/data/ring.out");
  for (int s = 0; s < steps; ++s) {
    b.compute(msec(2 + rank));
    b.send((rank + 1) % n, 8192, 100 + s);
    b.recv((rank + n - 1) % n, 100 + s);
    b.read(in, static_cast<std::uint64_t>(s) * 32768, 32768);
    b.append(out, 16384);
    b.barrier(n, 1);
  }
  return std::move(b).build();
}

std::vector<trace::TraceSet> run_ring(int nodes, std::size_t shards,
                                      std::size_t jobs,
                                      const MachineConfig& base,
                                      FabricStats* stats_out = nullptr) {
  MachineConfig cfg = base;
  cfg.nodes = nodes;
  cfg.shards = shards;
  cfg.jobs = jobs;
  Machine m(cfg);
  m.fabric().set_world_size(nodes);
  std::vector<workload::OpTrace> jobs_per_rank;
  for (int r = 0; r < nodes; ++r) {
    jobs_per_rank.push_back(ring_rank(r, nodes, /*steps=*/3));
    m.stage(r, jobs_per_rank.back());
  }
  m.run_for(sec(1));
  const SimTime t0 = m.now();
  m.ioctl_all(driver::TraceLevel::kStandard);
  for (int r = 0; r < nodes; ++r) {
    m.spawn_rank(r, std::move(jobs_per_rank[r]), r);
  }
  EXPECT_TRUE(m.run_until_all_done(t0 + sec(500)));
  m.run_for(sec(12));  // flush daemon tails into the trace
  m.ioctl_all(driver::TraceLevel::kOff);
  if (stats_out != nullptr) *stats_out = m.fabric().stats();
  return m.collect("pdes-ring", t0);
}

void expect_identical(const std::vector<trace::TraceSet>& ref,
                      const std::vector<trace::TraceSet>& got,
                      const std::string& what) {
  ASSERT_EQ(ref.size(), got.size()) << what;
  for (std::size_t n = 0; n < ref.size(); ++n) {
    ASSERT_EQ(ref[n].size(), got[n].size())
        << what << ": node " << n << " record count";
    EXPECT_EQ(ref[n].duration(), got[n].duration())
        << what << ": node " << n << " duration";
    for (std::size_t i = 0; i < ref[n].size(); ++i) {
      ASSERT_EQ(ref[n].records()[i], got[n].records()[i])
          << what << ": node " << n << " record " << i;
    }
  }
}

TEST(WindowMachine, TracesIdenticalAtAnyShardAndJobCount) {
  MachineConfig base;
  base.node = kernel::KernelConfig{};  // daemons on
  const auto ref = run_ring(8, 1, 1, base);  // serial reference
  std::uint64_t total = 0;
  for (const auto& t : ref) total += t.size();
  ASSERT_GT(total, 0u) << "reference run traced nothing";
  const struct {
    std::size_t shards, jobs;
  } grid[] = {{1, 2}, {2, 1}, {2, 8}, {3, 2}, {8, 1}, {8, 8}};
  for (const auto& g : grid) {
    expect_identical(ref, run_ring(8, g.shards, g.jobs, base),
                     "shards=" + std::to_string(g.shards) +
                         " jobs=" + std::to_string(g.jobs));
  }
}

TEST(WindowMachine, FabricStatsInvariantAcrossPartitionings) {
  // The traffic counters are functions of what the nodes DID, not of how
  // the machine was partitioned: sends/recvs/bytes/barriers must match the
  // serial reference exactly at every shard and job count. The scheduler
  // counters (windows/fused/elided) legitimately vary with the partition,
  // but fusion must engage — the ring spends most of its windows with an
  // empty fabric — and some window must still pay the serialized drain.
  MachineConfig base;
  FabricStats ref;
  run_ring(8, 1, 1, base, &ref);
  ASSERT_GT(ref.sends, 0u);
  ASSERT_GT(ref.barriers_completed, 0u);
  for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
    for (const std::size_t jobs : {1u, 2u, 8u}) {
      FabricStats st;
      run_ring(8, shards, jobs, base, &st);
      const std::string what = "shards=" + std::to_string(shards) +
                               " jobs=" + std::to_string(jobs);
      EXPECT_EQ(st.sends, ref.sends) << what;
      EXPECT_EQ(st.recvs, ref.recvs) << what;
      EXPECT_EQ(st.bytes, ref.bytes) << what;
      EXPECT_EQ(st.barriers_completed, ref.barriers_completed) << what;
      EXPECT_GT(st.windows, 0u) << what;
      EXPECT_GT(st.fused_windows, 0u) << what;
    }
  }
}

TEST(WindowMachine, WindowExceptionPropagatesLowestShardFirst) {
  // A shard runner that throws mid-window must surface on the coordinating
  // thread, and when several shards throw in one window the lowest shard
  // index wins — identically on the inline path (jobs=1) and the gang
  // (jobs=8), mirroring run_ordered's convention.
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    Machine m(machine_cfg(2, 2, jobs, quiet_cfg()));
    ASSERT_NE(m.shard_of(0), m.shard_of(1));
    const int lo = m.shard_of(0) < m.shard_of(1) ? 0 : 1;
    const SimTime at = m.now() + msec(1);
    m.node(lo).engine().schedule_at(
        at, [] { throw std::runtime_error("low shard"); });
    m.node(1 - lo).engine().schedule_at(
        at, [] { throw std::runtime_error("high shard"); });
    try {
      m.run_for(msec(10));
      FAIL() << "expected a throw at jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "low shard") << "jobs=" << jobs;
    }
  }
}

TEST(WindowMachine, PerNodeFaultPlansStayDeterministic) {
  // Node 2 alone gets a drive stall window and node 5 a bad-sector range;
  // the tune hook and the fault machinery are all per-node state, so the
  // invariance must survive them.
  MachineConfig base;
  base.tune_node = [](int node, kernel::KernelConfig& cfg) {
    if (node == 2) {
      cfg.fault.disk.stall_windows.push_back({sec(2), sec(4)});
    }
    if (node == 5) {
      cfg.fault.disk.bad_ranges.push_back({40'000, 40'063});
    }
  };
  const auto ref = run_ring(8, 1, 1, base);
  expect_identical(ref, run_ring(8, 4, 2, base), "faulted shards=4 jobs=2");
  expect_identical(ref, run_ring(8, 8, 8, base), "faulted shards=8 jobs=8");
}

std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(WindowMachine, MergedEsstCaptureByteIdentical) {
  // The full deliverable path: per-node captures -> k-way merge -> one
  // multi-node v2 file, byte-compared between the serial reference and a
  // sharded run, with the merge itself at different job counts.
  const std::string dir = ::testing::TempDir() + "/pdes_merge";
  std::filesystem::create_directories(dir);
  MachineConfig base;
  std::vector<std::string> merged;
  const struct {
    std::size_t shards, jobs, merge_jobs;
  } grid[] = {{1, 1, 1}, {4, 4, 2}, {8, 2, 8}};
  for (std::size_t g = 0; g < std::size(grid); ++g) {
    const auto traces = run_ring(8, grid[g].shards, grid[g].jobs, base);
    std::vector<std::string> parts;
    for (std::size_t n = 0; n < traces.size(); ++n) {
      telemetry::EsstMeta meta;
      meta.node_id = static_cast<std::int32_t>(n + 1);
      const std::string path = dir + "/g" + std::to_string(g) + "_node" +
                               std::to_string(n + 1) + ".esst";
      telemetry::write_esst_file(traces[n], path, meta);
      parts.push_back(path);
    }
    const std::string out = dir + "/g" + std::to_string(g) + ".esst";
    analysis::merge_esst(parts, out, grid[g].merge_jobs);
    merged.push_back(out);
  }
  const std::string ref = file_bytes(merged[0]);
  ASSERT_FALSE(ref.empty());
  for (std::size_t g = 1; g < merged.size(); ++g) {
    EXPECT_EQ(file_bytes(merged[g]), ref)
        << "merged capture " << merged[g] << " diverged from serial";
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ess::pdes
