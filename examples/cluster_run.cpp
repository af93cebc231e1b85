// Example: the full multiprogrammed experiment on a (small) cluster, plus
// the PIOUS-lite parallel file service — the production-environment
// emulation of the paper's final experiment, averaged per disk as in
// Table 1.
//
//   ./cluster_run [nodes]   (default 4; the paper's machine had 16)
#include <cstdio>
#include <cstdlib>

#include "analysis/report.hpp"
#include "cluster/pious.hpp"
#include "exec/experiments.hpp"

int main(int argc, char** argv) {
  using namespace ess;
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 4;

  core::StudyConfig study;
  // Keep the per-node study at full application scale but trim the
  // baseline (the combined run is the interesting part here).
  study.baseline_duration = sec(300);

  std::printf("Running the combined experiment on %d nodes...\n", nodes);
  const auto runs = exec::run_jobs(
      exec::cluster_jobs(nodes, study, exec::Experiment::kCombined),
      /*workers=*/0);
  std::vector<analysis::TraceSummary> summaries;
  trace::TraceSet merged("Combined", -1);  // node -1: the whole cluster
  for (const auto& r : runs) {
    summaries.push_back(analysis::summarize(r.run.trace));
    merged.merge(r.run.trace);
  }
  auto average = analysis::average_summaries(summaries);
  average.experiment = "Combined";

  std::printf("\nPer-disk average (combined load):\n");
  std::printf("%s\n", analysis::render_table1({average}).c_str());

  std::printf("Per-node request totals: ");
  for (const auto& r : runs) std::printf("%zu ", r.run.trace.size());
  std::printf("\n\n");

  std::printf("%s\n",
              analysis::render_spatial_figure(
                  merged, "Cluster-wide spatial locality (all disks)")
                  .c_str());

  // The coordinated-I/O path: a 4-server PIOUS-lite file service.
  cluster::PiousConfig pcfg;
  pcfg.servers = 4;
  cluster::PiousService pious(pcfg);
  const auto f = pious.create("ess-dataset");
  pious.write(f, 0, 8 * 1024 * 1024, {});
  pious.engine().run();
  std::printf("PIOUS-lite: 8 MB striped over %d servers, read back at "
              "%.2f MB/s (aggregate, Ethernet-capped)\n",
              pious.server_count(),
              pious.timed_read_bandwidth(f, 64 * 1024));
  return 0;
}
