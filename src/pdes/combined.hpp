// The combined parallel load on the sharded machine: PPM, wavelet and
// N-body, each an SPMD job spanning every node (world = 3N, globally
// numbered ranks, one barrier group per job), staged, traced from spawn
// to a post-completion daemon tail, and collected per node. Every
// multi-node driver of the combined load (`esstrace capture-pdes`, the
// PDES scaling benches, E-parallel) runs it through run_combined.
#pragma once

#include <cstddef>
#include <vector>

#include "core/study.hpp"
#include "pdes/fabric.hpp"
#include "trace/trace_set.hpp"

namespace ess::pdes {

struct CombinedRun {
  /// Per-node traces, rebased to the spawn time.
  std::vector<trace::TraceSet> traces;
  FabricStats stats;
  std::size_t shards = 0;    // the machine's resolved shard count
  double wall_seconds = 0;   // host time, construction to collection
  bool completed = false;    // every rank finished before max_run_time
};

/// One combined-load run of `nodes` nodes over `shards` shard engines on
/// `jobs` runners (MachineConfig semantics). Node kernels take scfg.node
/// with the combined run's coalescing and readahead ceilings; the apps
/// take scfg's configs and seed. Identical at any shard/job count.
CombinedRun run_combined(int nodes, std::size_t shards, std::size_t jobs,
                         const core::StudyConfig& scfg);

/// Record-for-record equality of two runs' per-node traces.
bool traces_identical(const std::vector<trace::TraceSet>& a,
                      const std::vector<trace::TraceSet>& b);

}  // namespace ess::pdes
