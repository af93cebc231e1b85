// Extension E-synthetic: the paper's stated next step — "integrate these
// data into a parameter set that can be used for system design and tuning".
//
// We distill the measured wavelet characterization into a SyntheticSpec,
// generate a synthetic workload from it, run that workload on the same
// simulated node, and compare the resulting disk signature to the real
// application's. A good match validates the parameter set as a stand-in
// for the application in design studies.
#include <cstdio>

#include "analysis/characterize.hpp"
#include "bench/common.hpp"
#include "workload/synthetic.hpp"

int main() {
  using namespace ess;
  core::Study study(bench::study_config());

  const auto real = study.run_single(core::AppKind::kWavelet);
  const auto s_real = analysis::summarize(real.trace);

  // Distill: duration, read fraction of explicit I/O, memory pressure.
  const auto& art = study.artifacts(core::AppKind::kWavelet);
  workload::SyntheticSpec spec;
  spec.name = "wavelet-synthetic";
  spec.duration = art.wavelet.modelled_compute;
  spec.explicit_io_bytes = art.wavelet.trace.total_read_bytes() +
                           art.wavelet.trace.total_write_bytes();
  spec.read_fraction =
      static_cast<double>(art.wavelet.trace.total_read_bytes()) /
      static_cast<double>(spec.explicit_io_bytes);
  spec.io_chunk_bytes = 16 * 1024;
  spec.image_bytes = art.wavelet.trace.image_bytes;
  spec.anon_bytes = art.wavelet.trace.anon_bytes;
  spec.working_set_pages = art.wavelet.trace.anon_pages() / 2;
  spec.phases = 6;

  Rng rng(study.config().seed);
  auto synth = workload::generate(spec, rng);
  synth.image_warm_fraction = study.config().wavelet.image_warm_fraction;
  const auto syn = study.run_custom("Synthetic", {std::move(synth)});
  const auto s_syn = analysis::summarize(syn.trace);

  std::printf("Synthetic parameter-set match (wavelet):\n");
  std::printf("  metric          real      synthetic\n");
  std::printf("  req/s        %8.2f     %8.2f\n", s_real.mix.requests_per_sec,
              s_syn.mix.requests_per_sec);
  std::printf("  read %%       %8.1f     %8.1f\n", s_real.mix.read_pct,
              s_syn.mix.read_pct);
  std::printf("  4 KB %%       %8.1f     %8.1f\n", s_real.pct_4k,
              s_syn.pct_4k);
  std::printf("  1 KB %%       %8.1f     %8.1f\n", s_real.pct_1k,
              s_syn.pct_1k);
  std::printf("  max req KB   %8u     %8u\n", s_real.max_request_bytes / 1024,
              s_syn.max_request_bytes / 1024);

  std::printf("\nChecks (synthetic within 2x of the real signature):\n");
  auto within = [](double a, double b, double factor) {
    if (a == 0 || b == 0) return a == b;
    const double r = a > b ? a / b : b / a;
    return r <= factor;
  };
  bool ok = true;
  ok &= bench::check("request rate", within(s_real.mix.requests_per_sec,
                                            s_syn.mix.requests_per_sec, 2.0),
                     "");
  ok &= bench::check("4 KB paging share",
                     within(s_real.pct_4k, s_syn.pct_4k, 2.0), "");
  ok &= bench::check("read share within 20 points",
                     std::abs(s_real.mix.read_pct - s_syn.mix.read_pct) < 20,
                     "");
  return ok ? 0 : 1;
}
