#include "pvm/parallel_apps.hpp"

#include <algorithm>

#include "apps/nbody/octree.hpp"
#include "apps/ppm/euler2d.hpp"
#include "workload/builder.hpp"

namespace ess::pvm {
namespace {

using workload::OpTrace;
using workload::OpTraceBuilder;

}  // namespace

std::vector<OpTrace> parallel_ppm(const apps::ppm::PpmConfig& cfg, int ranks,
                                  double cpu_mflops, Rng& rng) {
  // Run the real solver once to obtain per-step work and final results.
  apps::ppm::PpmSolver solver(cfg.nx, cfg.ny, 1.0 / cfg.nx, 1.0 / cfg.nx);
  solver.init_blast(0.1, 10.0, 0.1);
  std::vector<double> step_flops;
  step_flops.reserve(static_cast<std::size_t>(cfg.steps));
  for (int s = 0; s < cfg.steps; ++s) {
    step_flops.push_back(
        static_cast<double>(solver.step(cfg.cfl).flops) *
        cfg.model_flops_per_flop);
  }

  // Ghost row: nx cells x 4 fields x 8 bytes, two rows deep.
  const std::uint64_t ghost_bytes =
      static_cast<std::uint64_t>(cfg.nx) * 4 * 8 * 2;

  std::vector<OpTrace> out;
  for (int r = 0; r < ranks; ++r) {
    OpTraceBuilder b("ppm");
    b.set_image_bytes(cfg.image_bytes);
    b.set_image_warm_fraction(cfg.image_warm_fraction);
    // Weak scaling: the config is the PER-PROCESSOR problem (the paper's
    // "four 240x480 grids per processor"); the global domain grows with
    // the rank count.
    const std::uint64_t anon = solver.memory_bytes() + 256 * 1024;
    b.set_anon_bytes(anon);
    const auto out_file =
        r == 0 ? b.output_file(cfg.output_path) : workload::FileRef{0};

    b.touch_range(0, b.peek().image_pages(), false);
    b.touch_range(b.anon_first_page(), anon / 4096, true);
    b.barrier(ranks);  // everyone initialized

    const std::uint64_t strip_pages = anon / 4096;
    for (int s = 0; s < cfg.steps; ++s) {
      // Ghost exchange with neighbours (async sends, then receives).
      if (r > 0) b.send(r - 1, ghost_bytes, kTagGhostUp + s);
      if (r + 1 < ranks) b.send(r + 1, ghost_bytes, kTagGhostDown + s);
      if (r + 1 < ranks) b.recv(r + 1, kTagGhostUp + s);
      if (r > 0) b.recv(r - 1, kTagGhostDown + s);

      const auto slice = static_cast<SimTime>(
          step_flops[static_cast<std::size_t>(s)] / cpu_mflops);
      b.compute_with_working_set(slice, b.anon_first_page(), strip_pages, 4,
                                 16, 0.6, rng);

      if ((s + 1) % cfg.summary_every == 0) {
        if (r == 0) {
          for (int src = 1; src < ranks; ++src) b.recv(src, kTagStats + s);
          b.append(out_file, 160);
        } else {
          b.send(0, 64, kTagStats + s);
        }
      }
    }
    // Final gather + results.
    if (r == 0) {
      for (int src = 1; src < ranks; ++src) {
        b.recv(src, kTagGather);
      }
      b.append(out_file, 2048);
    } else {
      b.send(0, 2048 / static_cast<std::uint64_t>(ranks), kTagGather);
    }
    out.push_back(std::move(b).build());
  }
  return out;
}

std::vector<OpTrace> parallel_nbody(const apps::nbody::NBodyConfig& cfg,
                                    int ranks, double cpu_mflops, Rng& rng) {
  // One real run for the interaction counts.
  std::vector<double> step_flops;
  for (const auto inter : apps::nbody::numerics(cfg).step_interactions) {
    step_flops.push_back(static_cast<double>(inter) *
                             cfg.flops_per_interaction +
                         static_cast<double>(cfg.bodies) * 60.0 * 13.0);
  }

  // Weak scaling: cfg.bodies is per processor ("8K particles per
  // processor"); each rank allgathers its full local set.
  const std::uint64_t slice_bytes =
      static_cast<std::uint64_t>(cfg.bodies) * 32;  // positions + mass

  std::vector<OpTrace> out;
  for (int r = 0; r < ranks; ++r) {
    OpTraceBuilder b("nbody");
    b.set_image_bytes(cfg.image_bytes);
    b.set_image_warm_fraction(cfg.image_warm_fraction);
    const std::uint64_t body_bytes =
        static_cast<std::uint64_t>(cfg.bodies) * sizeof(apps::nbody::Body);
    // Every rank holds all positions (for the tree) but only its slice of
    // full body state; the tree arena is built over all bodies.
    const std::uint64_t tree_bytes =
        std::uint64_t{2} * cfg.bodies * apps::nbody::kModelTreeNodeBytes;
    const std::uint64_t anon =
        body_bytes + tree_bytes + cfg.heap_slack_bytes + 512 * 1024;
    b.set_anon_bytes(anon);
    const auto out_file =
        r == 0 ? b.output_file(cfg.output_path) : workload::FileRef{0};

    b.touch_range(0, b.peek().image_pages(), false);
    b.touch_range(b.anon_first_page(), body_bytes / 4096 + 1, true);
    b.barrier(ranks);

    const std::uint64_t anon_pages = anon / 4096;
    for (int s = 0; s < cfg.steps; ++s) {
      const auto slice = static_cast<SimTime>(
          step_flops[static_cast<std::size_t>(s)] / cpu_mflops);
      b.compute_with_working_set(slice, b.anon_first_page(), anon_pages, 6,
                                 16, 0.45, rng);
      // Allgather the updated positions.
      for (int dst = 0; dst < ranks; ++dst) {
        if (dst != r) b.send(dst, slice_bytes, kTagAllgather + s);
      }
      for (int src = 0; src < ranks; ++src) {
        if (src != r) b.recv(src, kTagAllgather + s);
      }
      b.barrier(ranks);  // lockstep, as the SIMD-heritage tree code ran

      if ((s + 1) % cfg.checkpoint_every == 0 && r == 0) {
        b.append(out_file, 2048);
      }
    }
    if (r == 0) b.append(out_file, 16 * 1024);
    out.push_back(std::move(b).build());
  }
  return out;
}

std::vector<OpTrace> parallel_wavelet(const apps::wavelet::WaveletConfig& cfg,
                                      int ranks, double cpu_mflops,
                                      Rng& rng) {
  const std::uint64_t input_bytes =
      static_cast<std::uint64_t>(cfg.image_size) * cfg.image_size + 512;
  const std::uint64_t plane_bytes =
      static_cast<std::uint64_t>(cfg.image_size) * cfg.image_size * 8;
  // Weak scaling: a batch of scenes, one full 512x512 image per rank.
  const std::uint64_t scene_bytes = input_bytes;
  const std::uint64_t coef_bytes = plane_bytes / 2;

  // Modelled per-rank compute: the sequential app's compute split evenly.
  Rng probe_rng(cfg.seed);
  // (reuse the sequential model's flop accounting at reduced cost: the
  // decomposition + search flops scale linearly in rows)
  const double total_flops =
      (3.0 + cfg.reference_count) * 9.9e6 +
      static_cast<double>(cfg.reference_count) *
          (static_cast<double>(cfg.search_coarse) * cfg.search_coarse *
               (cfg.image_size >> (cfg.levels - 2)) *
               (cfg.image_size >> (cfg.levels - 2)) * 2 +
           static_cast<double>(cfg.search_mid) * cfg.search_mid *
               (cfg.image_size >> 2) * (cfg.image_size >> 2) * 2 +
           static_cast<double>(cfg.search_fine) * cfg.search_fine *
               cfg.image_size * cfg.image_size * 2);
  (void)probe_rng;

  std::vector<OpTrace> out;
  for (int r = 0; r < ranks; ++r) {
    OpTraceBuilder b("wavelet");
    b.set_image_bytes(cfg.image_bytes);
    b.set_image_warm_fraction(cfg.image_warm_fraction);
    const std::uint64_t anon = plane_bytes * 5 + 1024 * 1024;
    b.set_anon_bytes(anon);
    workload::FileRef in{0}, out_file{0};
    if (r == 0) {
      // The whole batch lives in one dataset file read by rank 0.
      in = b.input_file(cfg.input_path,
                        scene_bytes * static_cast<std::uint64_t>(ranks),
                        cfg.input_goal_block);
      out_file = b.output_file(cfg.output_path);
    }

    b.touch_range(0, b.peek().image_pages(), false);
    b.compute(msec(200));
    b.touch_range(b.anon_first_page(), anon / 4096, true);
    b.barrier(ranks);

    if (r == 0) {
      // Read the batch and scatter one scene to each rank.
      const std::uint64_t batch =
          scene_bytes * static_cast<std::uint64_t>(ranks);
      for (std::uint64_t off = 0; off < batch; off += cfg.read_chunk) {
        b.read(in, off, std::min<std::uint64_t>(cfg.read_chunk, batch - off));
      }
      for (int dst = 1; dst < ranks; ++dst) {
        b.send(dst, scene_bytes, kTagScatter);
      }
    } else {
      b.recv(0, kTagScatter);
    }

    // Full per-scene decomposition + registration on every rank.
    const auto slice = static_cast<SimTime>(
        total_flops * cfg.model_flops_per_flop / cpu_mflops);
    b.compute_with_working_set(slice, b.anon_first_page(), anon / 4096, 24,
                               64, 0.35, rng);

    // Gather the coefficients; rank 0 writes them out.
    if (r == 0) {
      for (int src = 1; src < ranks; ++src) b.recv(src, kTagGather);
      const std::uint64_t out_bytes =
          coef_bytes * static_cast<std::uint64_t>(ranks);
      for (std::uint64_t off = 0; off < out_bytes; off += 16 * 1024) {
        b.append(out_file,
                 std::min<std::uint64_t>(16 * 1024, out_bytes - off));
        b.compute(msec(10));
      }
      b.append(out_file, 512);
    } else {
      b.send(0, coef_bytes, kTagGather);
    }
    out.push_back(std::move(b).build());
  }
  return out;
}

void retarget(workload::OpTrace& t, int rank_offset, int barrier_group) {
  for (auto& op : t.ops) {
    if (auto* snd = std::get_if<workload::SendOp>(&op)) {
      snd->dst_rank += rank_offset;
    } else if (auto* rcv = std::get_if<workload::RecvOp>(&op)) {
      if (rcv->src_rank >= 0) rcv->src_rank += rank_offset;
    } else if (auto* bar = std::get_if<workload::BarrierOp>(&op)) {
      bar->group = barrier_group;
    }
  }
}

}  // namespace ess::pvm
