// Extension E-cluster: per-disk averages across cluster nodes.
//
// The paper's Table 1 reports per-disk averages over the 16-node Beowulf.
// This harness runs the baseline on several nodes with per-node jitter and
// reports the averaged row plus the node-to-node spread. (Node count is 4
// by default so the binary stays quick; set ESS_NODES=16 for the full
// machine.)
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "analysis/characterize.hpp"
#include "bench/common.hpp"
#include "exec/experiments.hpp"

int main() {
  using namespace ess;
  int nodes = 4;
  if (const char* v = std::getenv("ESS_NODES")) nodes = std::atoi(v);
  if (nodes < 1) nodes = 1;

  core::StudyConfig study = bench::study_config();
  if (bench::fast_mode()) study.baseline_duration = sec(200);

  const auto runs = exec::run_jobs(
      exec::cluster_jobs(nodes, study, exec::Experiment::kBaseline),
      /*workers=*/0);
  std::vector<analysis::TraceSummary> summaries;
  for (const auto& r : runs) {
    summaries.push_back(analysis::summarize(r.run.trace));
  }
  const auto average = analysis::average_summaries(summaries);

  std::printf("Cluster baseline, %d nodes (per-disk averages):\n", nodes);
  std::printf("  avg req/s: %.2f   avg writes: %.0f%%   avg total: %llu\n",
              average.mix.requests_per_sec, average.mix.write_pct,
              static_cast<unsigned long long>(average.mix.total));

  std::printf("  per-node totals: ");
  std::uint64_t lo = ~0ull, hi = 0;
  for (const auto& r : runs) {
    const std::size_t size = r.run.trace.size();
    std::printf("%zu ", size);
    lo = std::min<std::uint64_t>(lo, size);
    hi = std::max<std::uint64_t>(hi, size);
  }
  std::printf("\n");

  std::printf("\nChecks:\n");
  bool ok = true;
  ok &= bench::check("every node writes-only at baseline",
                     average.mix.read_pct < 0.5,
                     bench::fmt("%.2f%% reads", average.mix.read_pct));
  ok &= bench::check("node-to-node spread is modest (same behaviour)",
                     static_cast<double>(hi) < 1.5 * static_cast<double>(lo),
                     bench::fmt("spread %.2fx", static_cast<double>(hi) /
                                                    static_cast<double>(lo)));
  return ok ? 0 : 1;
}
