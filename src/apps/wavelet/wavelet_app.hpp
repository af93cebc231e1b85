// The wavelet decomposition / registration workload.
//
// Paper behaviour to reproduce (Fig. 3, Table 1): a high rate of 4 KB
// paging at startup ("large program space and image data requirements"),
// a spike of large requests approaching 16 KB at ~50 s when the 512x512
// image file is read, a compute lull with few page requests, heavier
// activity toward the end, and a 49% / 51% read/write split — the only
// application with significant input data.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.hpp"
#include "workload/op.hpp"

namespace ess::apps::wavelet {

/// The inputs of the decomposition, registration and compression runs.
/// Configs with equal numerics share one phase-A profile; the rest of
/// WaveletConfig only shapes the trace.
struct WaveletNumerics {
  int image_size = 512;     // 512x512-byte scene, as in the paper
  int levels = 5;
  std::uint64_t seed = 42;
  // Registration search: shift grids per pyramid level (coarse -> fine),
  // repeated for several reference scenes (a registration batch, as the
  // Goddard imagery pipeline processed).
  int search_coarse = 64;
  int search_mid = 32;
  int search_fine = 16;
  int reference_count = 3;

  bool operator==(const WaveletNumerics&) const = default;
};

struct WaveletConfig : WaveletNumerics {
  std::uint64_t image_bytes = 4 * 1024 * 1024;  // large program image
  double image_warm_fraction = 0.35;  // larger than the cache: mostly cold
  double model_flops_per_flop = 8.0;  // DX4 cost of one counted flop
  std::string input_path = "/data/landsat.img";
  std::uint64_t input_goal_block = 75'000;
  std::string output_path = "/data/wavelet.coef";
  std::uint64_t read_chunk = 8 * 1024;  // app-level read buffer
};

/// What the numerics leave for trace assembly: the result scalars, the
/// counted work and the compressed payload that sizes the output file.
struct WaveletProfile {
  double input_energy = 0;
  double haar_energy = 0;       // energy after Haar decomposition
  double d4_energy = 0;         // energy after D4 decomposition
  double compression_ratio = 0; // fraction of near-zero D4 coefficients
  double bits_per_pixel = 0;    // achieved by quantize + Huffman
  double psnr_db = 0;           // reconstruction quality at that rate
  int best_shift_row = 0;
  int best_shift_col = 0;
  std::uint64_t native_flops = 0;
  std::uint64_t payload_bytes = 0;  // quantized + Huffman-coded scene
};

struct WaveletRunResult : WaveletProfile {
  SimTime modelled_compute = 0;
  workload::OpTrace trace;
};

/// Phase A: decompose, register and compress. Pure: no Rng, no CPU model.
WaveletProfile numerics(const WaveletNumerics& cfg);

/// Phase B: build the workload trace from a profile (cheap).
WaveletRunResult assemble(const WaveletConfig& cfg,
                          const WaveletProfile& profile, double cpu_mflops,
                          Rng& rng);

/// assemble(cfg, numerics(cfg), cpu_mflops, rng).
WaveletRunResult run_wavelet(const WaveletConfig& cfg, double cpu_mflops,
                             Rng& rng);

}  // namespace ess::apps::wavelet
