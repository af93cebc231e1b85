// The PPM application workload: runs the real solver (phase A, numerics())
// and records the OpTrace the kernel will execute (phase B, assemble()).
//
// Paper behaviour to reproduce (Fig. 2, Table 1): very low I/O, almost all
// 1 KB requests, a single 4 KB paging event near the end of the ~250 s run,
// 4% reads / 96% writes. PPM is "a simulation with no input data, and only
// short statistical summaries being written".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "workload/op.hpp"

namespace ess::apps::ppm {

/// The inputs of the solver run. Configs with equal numerics share one
/// phase-A profile; the rest of PpmConfig only shapes the trace.
struct PpmNumerics {
  int nx = 240;
  int ny = 480;      // "four 240x480 grids": 4 conserved fields on 240x480
  int steps = 60;    // sized so the modelled run is ~250 s on the DX4
  double cfl = 0.4;

  bool operator==(const PpmNumerics&) const = default;
};

struct PpmConfig : PpmNumerics {
  int summary_every = 10;           // steps between statistics appends
  /// 0 disables checkpointing (the paper's configuration). When set, the
  /// solver dumps its full conserved-variable state every N steps — the
  /// "checkpoint" I/O class of Miller & Katz's taxonomy, provided as an
  /// extension experiment (bench/ext_checkpoint_class).
  int checkpoint_every = 0;
  std::string checkpoint_path = "/data/ppm.chk";
  std::uint64_t image_bytes = 640 * 1024;  // executable (text+data)
  double image_warm_fraction = 0.95;  // binary mostly hot in the cache
  double model_flops_per_flop = 2.5;  // DX4 cost of one counted flop
  std::string output_path = "/data/ppm.out";
};

struct PpmRunResult {
  double final_mass = 0;
  double final_energy = 0;
  double max_density = 0;
  std::uint64_t native_flops = 0;
  SimTime modelled_compute = 0;
  workload::OpTrace trace;
};

/// What the solver run leaves for trace assembly.
struct PpmProfile {
  std::vector<std::uint64_t> step_flops;  // counted work of each step
  std::uint64_t memory_bytes = 0;         // the solver's arrays
  double final_mass = 0;
  double final_energy = 0;
  double max_density = 0;
};

/// Phase A: run the solver for cfg.steps. Pure: no Rng, no CPU model.
PpmProfile numerics(const PpmNumerics& cfg);

/// Phase B: build the workload trace from a profile (cheap). `cpu_mflops`
/// converts counted work to DX4 time; `rng` samples the working set.
PpmRunResult assemble(const PpmConfig& cfg, const PpmProfile& profile,
                      double cpu_mflops, Rng& rng);

/// assemble(cfg, numerics(cfg), cpu_mflops, rng).
PpmRunResult run_ppm(const PpmConfig& cfg, double cpu_mflops, Rng& rng);

}  // namespace ess::apps::ppm
