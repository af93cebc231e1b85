#include "cluster/cluster.hpp"

#include "workload/builder.hpp"

namespace ess::cluster {

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(std::move(cfg)), net_(cfg_.ethernet) {}

analysis::TraceSummary average_summaries(
    const std::vector<analysis::TraceSummary>& xs) {
  analysis::TraceSummary avg;
  if (xs.empty()) return avg;
  avg.experiment = xs.front().experiment;
  const double n = static_cast<double>(xs.size());
  double total = 0;
  for (const auto& s : xs) {
    avg.mix.reads += s.mix.reads;
    avg.mix.writes += s.mix.writes;
    avg.mix.requests_per_sec += s.mix.requests_per_sec / n;
    total += static_cast<double>(s.mix.total) / n;
    avg.pct_1k += s.pct_1k / n;
    avg.pct_2k += s.pct_2k / n;
    avg.pct_4k += s.pct_4k / n;
    avg.pct_ge_8k += s.pct_ge_8k / n;
    avg.pct_ge_16k += s.pct_ge_16k / n;
    avg.max_request_bytes = std::max(avg.max_request_bytes,
                                     s.max_request_bytes);
    avg.duration_sec += s.duration_sec / n;
  }
  avg.mix.total = static_cast<std::uint64_t>(total);
  const auto rw = avg.mix.reads + avg.mix.writes;
  if (rw > 0) {
    avg.mix.read_pct =
        100.0 * static_cast<double>(avg.mix.reads) / static_cast<double>(rw);
    avg.mix.write_pct = 100.0 - avg.mix.read_pct;
  }
  // reads/writes were summed across nodes; scale to per-disk means.
  avg.mix.reads = static_cast<std::uint64_t>(
      static_cast<double>(avg.mix.reads) / n);
  avg.mix.writes = static_cast<std::uint64_t>(
      static_cast<double>(avg.mix.writes) / n);
  return avg;
}

ClusterRunResult Cluster::run_on_all(
    const std::string& name,
    const std::function<core::RunResult(core::Study&)>& runner) {
  ClusterRunResult out;
  std::vector<analysis::TraceSummary> summaries;
  out.merged = trace::TraceSet(name, -1);
  // Numerics are keyed by app config, not by the per-node seed: every
  // node shares one phase A and only assembles its own traces.
  core::PhaseAStore store;

  for (int n = 0; n < cfg_.nodes; ++n) {
    core::StudyConfig sc = cfg_.study;
    sc.seed += static_cast<std::uint64_t>(n) * 0x9e3779b97f4a7c15ULL;
    sc.node.seed = sc.seed;
    if (cfg_.model_startup_barrier) {
      // Nodes joining the barrier at slightly different times shows up as
      // a small per-node phase shift; the barrier itself costs network
      // time before compute begins. We fold both into the settle gap.
      sc.settle_time += net_.barrier_time(cfg_.nodes) +
                        static_cast<SimTime>(n) * usec(500);
    }
    core::Study study(sc, &store);
    core::RunResult r = runner(study);
    summaries.push_back(analysis::summarize(r.trace));
    out.merged.merge(r.trace);
    out.node_traces.push_back(std::move(r.trace));
  }
  out.average = average_summaries(summaries);
  out.average.experiment = name;
  return out;
}

ClusterRunResult Cluster::run_baseline() {
  return run_on_all("Baseline",
                    [](core::Study& s) { return s.run_baseline(); });
}

ClusterRunResult Cluster::run_single(core::AppKind kind) {
  return run_on_all(core::to_string(kind),
                    [kind](core::Study& s) { return s.run_single(kind); });
}

ClusterRunResult Cluster::run_combined() {
  return run_on_all("Combined",
                    [](core::Study& s) { return s.run_combined(); });
}

}  // namespace ess::cluster
