// Multi-node cluster runs as independent per-node jobs (exec::cluster_jobs
// through run_jobs): per-node jitter, per-disk averages, merged traces,
// and the committed 2-node cluster goldens reproduced byte for byte.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "analysis/parallel.hpp"
#include "cluster/ethernet.hpp"
#include "core/presets.hpp"
#include "exec/experiments.hpp"
#include "telemetry/esst.hpp"

namespace ess::exec {
namespace {

struct ClusterRun {
  std::vector<trace::TraceSet> node_traces;
  analysis::TraceSummary average;  // per-disk means
  trace::TraceSet merged;          // every node's records, node id -1
};

ClusterRun run_cluster(int nodes, const core::StudyConfig& study,
                       Experiment e, const std::string& name) {
  ClusterRun out;
  out.merged = trace::TraceSet(name, -1);
  std::vector<analysis::TraceSummary> summaries;
  for (auto& o : run_jobs(cluster_jobs(nodes, study, e), /*workers=*/0)) {
    summaries.push_back(analysis::summarize(o.run.trace));
    out.merged.merge(o.run.trace);
    out.node_traces.push_back(std::move(o.run.trace));
  }
  out.average = analysis::average_summaries(summaries);
  out.average.experiment = name;
  return out;
}

TEST(Cluster, TwoNodeBaselineAveragesPerDisk) {
  core::StudyConfig study = core::fast_study_config();
  study.baseline_duration = sec(90);
  const auto result = run_cluster(2, study, Experiment::kBaseline, "Baseline");
  ASSERT_EQ(result.node_traces.size(), 2u);
  EXPECT_GT(result.average.mix.total, 0u);
  EXPECT_NEAR(result.average.mix.write_pct, 100.0, 1.0);
  // Merged trace holds both nodes' records.
  EXPECT_GE(result.merged.size(), result.node_traces[0].size());
}

TEST(Cluster, NodesDifferButAgreeQualitatively) {
  core::StudyConfig study = core::fast_study_config();
  study.baseline_duration = sec(90);
  const auto result = run_cluster(3, study, Experiment::kBaseline, "Baseline");
  // Per-node jitter: traces are not identical across nodes.
  bool all_same = true;
  for (std::size_t i = 1; i < result.node_traces.size(); ++i) {
    if (result.node_traces[i].size() != result.node_traces[0].size()) {
      all_same = false;
    }
  }
  EXPECT_FALSE(all_same);
  for (const auto& t : result.node_traces) {
    const auto mix = analysis::rw_mix(t);
    EXPECT_EQ(mix.reads, 0u);  // every node: writes only at baseline
  }
}

TEST(ClusterApps, SinglePpmAveragesStayWriteDominated) {
  const auto result = run_cluster(2, core::fast_study_config(),
                                  Experiment::kPpm, "PPM");
  ASSERT_EQ(result.node_traces.size(), 2u);
  EXPECT_GT(result.average.mix.write_pct, 80.0);
  EXPECT_GT(result.average.mix.total, 0u);
  EXPECT_EQ(result.average.experiment, "PPM");
}

TEST(ClusterApps, CombinedMergedTraceSpansBothNodes) {
  const auto result = run_cluster(2, core::fast_study_config(),
                                  Experiment::kCombined, "Combined");
  EXPECT_EQ(result.merged.size(),
            result.node_traces[0].size() + result.node_traces[1].size());
  // Merged records are time-ordered.
  const auto& recs = result.merged.records();
  for (std::size_t i = 1; i < recs.size(); ++i) {
    ASSERT_LE(recs[i - 1].timestamp, recs[i].timestamp);
  }
}

TEST(ClusterApps, StartupBarrierSkewsNodePhases) {
  const core::StudyConfig study = core::fast_study_config();
  // Every node pays the 2-process start-up barrier; node n joins it
  // n * 500 us late. Seeds are per node, and the node kernel shares them.
  const auto specs = cluster_jobs(2, study, Experiment::kPpm);
  ASSERT_EQ(specs.size(), 2u);
  const SimTime barrier = cluster::EthernetModel{}.barrier_time(2);
  for (std::size_t n = 0; n < specs.size(); ++n) {
    EXPECT_EQ(specs[n].name, "node" + std::to_string(n + 1));
    EXPECT_EQ(specs[n].config.settle_time,
              study.settle_time + barrier +
                  static_cast<SimTime>(n) * usec(500));
    EXPECT_EQ(specs[n].config.seed, study.seed + n * 0x9e3779b97f4a7c15ULL);
    EXPECT_EQ(specs[n].config.node.seed, specs[n].config.seed);
  }
  const auto result = run_cluster(2, study, Experiment::kPpm, "PPM");
  // Both nodes still complete and produce comparable volumes.
  const auto a = result.node_traces[0].size();
  const auto b = result.node_traces[1].size();
  EXPECT_GT(a, 0u);
  EXPECT_GT(b, 0u);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

TEST(ClusterGolden, TwoNodeBaselineReproducesCommittedCaptures) {
  // The capture `esstrace capture-all` writes for the cluster goldens:
  // the 2-node fast-config baseline, one ESST per node (node ids 1..2,
  // the study seed in the header) and their k-way merge. Every byte must
  // match the committed files, at one and at four workers.
  const auto golden =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "golden";
  const std::string names[] = {"cluster_node1.esst", "cluster_node2.esst",
                               "cluster.esst"};
  for (const auto& name : names) {
    ASSERT_TRUE(std::filesystem::exists(golden / name)) << name;
  }
  const core::StudyConfig study = core::fast_study_config();
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "cluster_golden";
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    std::filesystem::create_directories(dir);
    const auto runs =
        run_jobs(cluster_jobs(2, study, Experiment::kBaseline), workers);
    ASSERT_EQ(runs.size(), 2u);
    std::vector<std::string> parts;
    for (std::size_t n = 0; n < runs.size(); ++n) {
      telemetry::EsstMeta meta;
      meta.node_id = static_cast<std::int32_t>(n + 1);
      meta.seed = study.seed;
      parts.push_back((dir / names[n]).string());
      telemetry::write_esst_file(runs[n].run.trace, parts.back(), meta);
    }
    analysis::merge_esst(parts, (dir / names[2]).string(), workers);
    for (const auto& name : names) {
      const std::string want = slurp(golden / name);
      ASSERT_FALSE(want.empty()) << name;
      // Compared as a bool so a mismatch does not dump binary bytes.
      EXPECT_TRUE(slurp(dir / name) == want)
          << name << " differs from the golden at workers=" << workers;
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace ess::exec
