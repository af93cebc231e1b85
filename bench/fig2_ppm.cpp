// Figure 2: Request Size (PPM) — request size vs. time for the PPM run.
//
// Paper: "The I/O during this application is relatively low with no paging
// activity ... except briefly toward the end ... The 1KB block I/O
// requests are very prevalent." Table 1: 4% reads / 96% writes.
#include <cstdio>

#include "analysis/report.hpp"
#include "bench/common.hpp"

int main() {
  using namespace ess;
  core::Study study(bench::study_config());
  const auto r = study.run_single(core::AppKind::kPpm);
  const auto s = analysis::summarize(r.trace);

  std::printf("%s\n",
              analysis::render_size_figure(r.trace, "Figure 2. Request Size (PPM)")
                  .c_str());
  std::printf("%s\n", analysis::render_size_classes(s).c_str());
  analysis::write_size_series_csv(r.trace, bench::out_dir() + "/fig2_ppm.csv");

  const auto& art = study.artifacts(core::AppKind::kPpm);
  // Domain (nx*dx) x (ny*dy) = 1 x 2 at unit density: exact mass is 2.
  std::printf("Solver run: %d steps, mass drift %.2e, peak density %.2f\n",
              study.config().ppm.steps, std::abs(art.ppm.final_mass - 2.0),
              art.ppm.max_density);
  std::printf("Modelled compute: %.0f s on the DX4 (paper run: ~250 s)\n",
              to_seconds(art.ppm.modelled_compute));

  std::printf("\nPaper-vs-measured checks:\n");
  bool ok = true;
  ok &= bench::check("write dominated (paper: 96%% writes)",
                     s.mix.write_pct > 85.0,
                     bench::fmt("measured %.1f%%", s.mix.write_pct));
  ok &= bench::check("1 KB prevalent", s.pct_1k > 50.0,
                     bench::fmt("measured %.1f%%", s.pct_1k));
  ok &= bench::check("little paging (4 KB rare)", s.pct_4k < 15.0,
                     bench::fmt("measured %.1f%%", s.pct_4k));
  ok &= bench::check("low request rate", s.mix.requests_per_sec < 3.0,
                     bench::fmt("measured %.2f/s", s.mix.requests_per_sec));
  return ok ? 0 : 1;
}
