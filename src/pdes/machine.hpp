// The multi-node Beowulf: N NodeKernels, each with its own disk, joined
// by the message fabric, partitioned over S independent discrete-event
// engines and advanced in lockstep time windows on a thread pool — a
// conservative parallel discrete-event simulation. shards = 1 is the
// serial machine: one engine, one clock, every window run inline.
//
// The window protocol (see fabric.hpp for the fabric side):
//
//   1. drain: inject every pending cross-shard delivery and barrier
//      release into the owning shards' engines, in one globally sorted
//      order — skipped entirely (a "fused" window) when the fabric is
//      quiescent, since an empty drain cannot change anything.
//   2. horizon: tmin = the earliest pending event over all shards, read
//      from per-shard next-event caches the shard runners refresh as
//      they finish (no serialized engine scan).
//   3. window: every shard whose next event lies before B = tmin +
//      lookahead runs run_before(B) — safe because nothing a node does
//      before B can affect another shard before B (every cross-node path
//      pays at least the Ethernet latency, and it is the lookahead).
//      Shards with nothing to do before B are elided: their runner is
//      never woken and their clock is left lagging (event times are
//      absolute, so running them later is identical). A window with one
//      active shard runs inline on the coordinating thread; wider
//      windows go through a persistent exec::EpochBarrier gang instead
//      of per-window pool submissions.
//   4. repeat.
//
// Nodes interact only through the fabric, and the fabric's outputs
// (delivery times, delivery order, barrier releases) are pure functions
// of per-node histories — so per-node event streams, traces, and the
// merged capture are byte-identical at any shard count and any worker
// count, including shards = 1 (the serial reference).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/ethernet.hpp"
#include "exec/epoch_barrier.hpp"
#include "kernel/node_kernel.hpp"
#include "pdes/fabric.hpp"
#include "workload/op.hpp"

namespace ess::pdes {

struct MachineConfig {
  int nodes = 16;
  /// Engine partitions. 0 picks one per worker (capped at the node
  /// count). Any value yields identical results; more shards than
  /// workers just buys scheduling slack.
  std::size_t shards = 0;
  /// Concurrent shard runners, counting the coordinating thread (which
  /// always participates): jobs = N parks N-1 persistent gang threads.
  /// 0 = ESS_JOBS / hardware threads; 1 runs every shard inline (the
  /// serial reference path). Any value yields identical results.
  std::size_t jobs = 1;
  kernel::KernelConfig node;
  cluster::EthernetConfig ethernet;
  /// Per-node override hook, applied after the per-node seed jitter —
  /// the place to attach per-node fault plans or RAM asymmetries.
  std::function<void(int node, kernel::KernelConfig&)> tune_node;
};

class Machine {
 public:
  explicit Machine(MachineConfig cfg);

  int node_count() const { return static_cast<int>(nodes_.size()); }
  std::size_t shard_count() const { return engines_.size(); }
  kernel::NodeKernel& node(int i) {
    return *nodes_.at(static_cast<std::size_t>(i));
  }
  std::size_t shard_of(int node_idx) const {
    return shard_of_.at(static_cast<std::size_t>(node_idx));
  }
  WindowFabric& fabric() { return fabric_; }
  /// Between public calls every shard clock agrees; this is that time.
  SimTime now() const { return now_; }

  /// Stage a workload's inputs and (warmed) image on one node, as the
  /// Study does before tracing.
  void stage(int node_idx, const workload::OpTrace& w);

  /// Spawn `trace` on a node as PVM rank `rank`. With a declared world
  /// size, processes are held until every rank is spawned, so no rank can
  /// message a peer that does not exist yet; without one each process
  /// starts immediately.
  mm::Pid spawn_rank(int node_idx, workload::OpTrace trace, int rank);

  void ioctl_all(driver::TraceLevel level);

  /// Advance every shard by `d` through lookahead windows.
  void run_for(SimTime d);

  bool all_done() const;

  /// Windows until every process on every node finished (true) or the
  /// cap was reached (false). Throws on a true deadlock: blocked
  /// processes with no event or in-flight message anywhere.
  bool run_until_all_done(SimTime max_time);

  /// Per-node traces, rebased to `t0`. Identical at any shard/job count.
  std::vector<trace::TraceSet> collect(const std::string& experiment,
                                       SimTime t0);

 private:
  /// Drain the fabric unless it is quiescent; returns true if a real
  /// drain ran (the window about to open is then not fused).
  bool drain_unless_quiescent();
  /// Re-read every shard's next event time into the cache. Public
  /// mutators (stage/spawn/ioctl — and tests poking engines directly)
  /// mark the cache dirty; the run loops refresh once on entry.
  void refresh_next();
  SimTime cached_horizon() const;  // min over next_cache_
  /// One pass over the shards that have work before `t`: run_before(t)
  /// or run_until(t), inline for <= 1 active shard, on the gang
  /// otherwise. With before == false, idle shards still get their clock
  /// bumped to `t` (public calls may rely on agreeing clocks); with
  /// before == true they are elided outright. Returns the elided count.
  std::size_t run_window(SimTime t, bool before);

  std::size_t workers_;
  std::size_t nshards_;
  exec::EpochBarrier gang_;
  std::vector<std::unique_ptr<sim::Engine>> engines_;
  std::vector<sim::Engine*> engine_ptrs_;
  WindowFabric fabric_;
  std::vector<std::unique_ptr<kernel::NodeKernel>> nodes_;
  std::vector<std::size_t> shard_of_;
  std::vector<std::pair<int, mm::Pid>> held_;  // awaiting full world
  std::vector<SimTime> next_cache_;   // per-shard next event time
  std::vector<std::size_t> active_;   // window scratch: shards with work
  bool horizon_dirty_ = true;
  SimTime now_ = 0;
};

}  // namespace ess::pdes
