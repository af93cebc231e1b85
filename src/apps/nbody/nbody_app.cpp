#include "apps/nbody/nbody_app.hpp"

#include <cmath>

#include "apps/nbody/octree.hpp"
#include "workload/builder.hpp"

namespace ess::apps::nbody {

NBodyProfile numerics(const NBodyNumerics& cfg, util::ForkJoinBoard* board) {
  NBodySim sim(cfg.bodies, cfg.seed);
  const Vec3 p0 = sim.stats().momentum;

  NBodyProfile p;
  p.step_interactions.reserve(static_cast<std::size_t>(cfg.steps));
  for (int s = 0; s < cfg.steps; ++s) {
    p.step_interactions.push_back(
        sim.step(cfg.dt, cfg.theta, cfg.softening, board));
  }
  const SystemStats st = sim.stats();
  p.total_interactions = sim.total_interactions();
  p.final_kinetic = st.kinetic;
  const Vec3 drift = st.momentum - p0;
  p.momentum_drift = std::sqrt(drift.norm2());
  return p;
}

NBodyRunResult assemble(const NBodyConfig& cfg, const NBodyProfile& profile,
                        double cpu_mflops, Rng& rng) {
  workload::OpTraceBuilder b("nbody");
  b.set_image_bytes(cfg.image_bytes);
  b.set_image_warm_fraction(cfg.image_warm_fraction);
  const std::uint64_t body_bytes =
      static_cast<std::uint64_t>(cfg.bodies) * sizeof(Body);
  // Two body arrays (sort permutation) + double-buffered tree arenas
  // (~2 nodes per body each) + heap slack; the slight overshoot past free
  // RAM is what produces the paper's "few page swaps" for this code.
  const std::uint64_t tree_bytes =
      std::uint64_t{2} * cfg.bodies * kModelTreeNodeBytes;
  const std::uint64_t anon =
      body_bytes * 2 + tree_bytes * 2 + cfg.heap_slack_bytes;
  b.set_anon_bytes(anon);
  const auto out = b.output_file(cfg.output_path);

  // Startup: load the image, initialize particles.
  b.touch_range(0, b.peek().image_pages(), false);
  b.touch_range(b.anon_first_page(), body_bytes / 4096 + 1, true);
  b.compute(msec(800));

  NBodyRunResult result;
  const std::uint64_t anon_pages = anon / 4096;
  int done = 0;  // steps completed
  for (const std::uint64_t inter : profile.step_interactions) {
    ++done;
    // Tree build ~ 60 flops/body-level, force evaluation dominated by the
    // interaction count.
    const double step_flops =
        static_cast<double>(inter) * cfg.flops_per_interaction +
        static_cast<double>(cfg.bodies) * 60.0 * 13.0;
    result.native_flops += static_cast<std::uint64_t>(step_flops);

    const auto step_time = static_cast<SimTime>(
        step_flops * cfg.model_flops_per_flop / cpu_mflops);
    // Tree rebuild churns the heap: a rebuild touches the whole arena with
    // writes; force evaluation re-reads it.
    b.compute_with_working_set(step_time, b.anon_first_page(), anon_pages,
                               /*slices=*/6, /*pages_per_slice=*/20,
                               /*write_fraction=*/0.45, rng);

    if (done % cfg.checkpoint_every == 0) {
      // ~2 KB of per-step diagnostics: energy, momentum, tree stats —
      // the source of the paper's 2 KB request class for this code.
      b.append(out, 2048);
      b.compute(msec(2));
    }
  }

  result.total_interactions = profile.total_interactions;
  result.final_kinetic = profile.final_kinetic;
  result.momentum_drift = profile.momentum_drift;

  // Final particle snapshot summary (~16 KB: positions of a subsample).
  b.append(out, 16 * 1024);
  result.trace = std::move(b).build();
  result.modelled_compute = result.trace.total_compute();
  return result;
}

NBodyRunResult run_nbody(const NBodyConfig& cfg, double cpu_mflops,
                         Rng& rng) {
  return assemble(cfg, numerics(cfg), cpu_mflops, rng);
}

}  // namespace ess::apps::nbody
