// The N-body application workload.
//
// Paper behaviour to reproduce (Fig. 4, Table 1): mostly 1 KB block I/O
// with more 2 KB requests and a few 4 KB page swaps than PPM (higher
// compute pressure maintaining the working set), 13% reads / 87% writes,
// periodic short statistics, final results at the end; 8K particles per
// processor, ~303 M interactions over the run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/fork_join.hpp"
#include "util/rng.hpp"
#include "workload/op.hpp"

namespace ess::apps::nbody {

/// The inputs of the simulation run. Configs with equal numerics share one
/// phase-A profile; the rest of NBodyConfig only shapes the trace.
struct NBodyNumerics {
  int bodies = 8192;
  int steps = 60;
  double dt = 0.01;
  double theta = 0.6;
  double softening = 0.05;
  std::uint64_t seed = 7;

  bool operator==(const NBodyNumerics&) const = default;
};

struct NBodyConfig : NBodyNumerics {
  int checkpoint_every = 4;     // steps between ~2 KB statistics appends
  std::uint64_t image_bytes = 896 * 1024;
  double image_warm_fraction = 0.85;
  /// Heap beyond bodies + double-buffered tree arenas: sort scratch and
  /// allocator fragmentation over the long run.
  std::uint64_t heap_slack_bytes = 2 * 1024 * 1024;
  double model_flops_per_flop = 1.0;  // interactions are costed directly
  double flops_per_interaction = 25.0;  // DX4 cost incl. sqrt
  std::string output_path = "/data/nbody.out";
};

struct NBodyRunResult {
  std::uint64_t total_interactions = 0;
  double final_kinetic = 0;
  double momentum_drift = 0;  // |P_final - P_initial|
  std::uint64_t native_flops = 0;
  SimTime modelled_compute = 0;
  workload::OpTrace trace;
};

/// Modelled heap bytes per tree node: the size of a build node when the
/// memory model was calibrated. A constant, so the tree code's own layout
/// cannot move the modelled footprint or any trace.
inline constexpr std::uint64_t kModelTreeNodeBytes = 104;

/// What the simulation run leaves for trace assembly.
struct NBodyProfile {
  std::vector<std::uint64_t> step_interactions;  // force pairs per step
  std::uint64_t total_interactions = 0;
  double final_kinetic = 0;
  double momentum_drift = 0;
};

/// Phase A: run the tree code for cfg.steps. Pure: no Rng, no CPU model.
/// With a board, each force pass is posted there for waiting threads to
/// help with; the profile is the same either way.
NBodyProfile numerics(const NBodyNumerics& cfg,
                      util::ForkJoinBoard* board = nullptr);

/// Phase B: build the workload trace from a profile (cheap).
NBodyRunResult assemble(const NBodyConfig& cfg, const NBodyProfile& profile,
                        double cpu_mflops, Rng& rng);

/// assemble(cfg, numerics(cfg), cpu_mflops, rng).
NBodyRunResult run_nbody(const NBodyConfig& cfg, double cpu_mflops, Rng& rng);

}  // namespace ess::apps::nbody
