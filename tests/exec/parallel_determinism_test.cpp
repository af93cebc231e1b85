// The executor's central promise: a parallel run of the experiment matrix
// is indistinguishable from a serial loop — same traces, and byte-identical
// ESST captures for the same seeds and fault plans.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/presets.hpp"
#include "exec/experiments.hpp"
#include "fault/fault.hpp"
#include "telemetry/esst.hpp"

namespace ess::exec {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

std::vector<JobSpec> capture_matrix(const std::string& tag) {
  // PPM and combined (the satellite's two workloads), plus a faulted PPM
  // cell so the determinism claim covers the fault path too.
  std::vector<JobSpec> specs;
  {
    JobSpec s;
    s.name = "ppm";
    s.config = core::fast_study_config();
    s.experiment = Experiment::kPpm;
    s.esst_path = ::testing::TempDir() + "/det_" + tag + "_ppm.esst";
    specs.push_back(std::move(s));
  }
  {
    JobSpec s;
    s.name = "combined";
    s.config = core::fast_study_config();
    s.experiment = Experiment::kCombined;
    s.esst_path = ::testing::TempDir() + "/det_" + tag + "_combined.esst";
    specs.push_back(std::move(s));
  }
  {
    JobSpec s;
    s.name = "ppm-faulted";
    s.config = core::fast_study_config();
    s.config.node.fault.seed = 99;
    s.config.node.fault.disk.transient_error_rate = 0.01;
    s.config.node.fault.disk.latency_spike_rate = 0.02;
    s.config.node.fault.disk.latency_spike = msec(5);
    s.experiment = Experiment::kPpm;
    s.esst_path = ::testing::TempDir() + "/det_" + tag + "_faulted.esst";
    specs.push_back(std::move(s));
  }
  return specs;
}

TEST(ParallelDeterminism, SerialAndParallelEsstCapturesAreByteIdentical) {
  const auto serial_specs = capture_matrix("serial");
  const auto parallel_specs = capture_matrix("parallel");

  const auto serial = run_jobs(serial_specs, /*workers=*/0);
  const auto parallel = run_jobs(parallel_specs, /*workers=*/4);
  ASSERT_EQ(serial.size(), parallel.size());

  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].name);
    ASSERT_FALSE(serial[i].esst_failed) << serial[i].esst_error;
    ASSERT_FALSE(parallel[i].esst_failed) << parallel[i].esst_error;

    // The in-memory traces agree record for record...
    ASSERT_EQ(serial[i].run.trace.size(), parallel[i].run.trace.size());
    ASSERT_GT(serial[i].run.trace.size(), 0u);
    EXPECT_EQ(serial[i].run.run_time, parallel[i].run.run_time);
    EXPECT_EQ(serial[i].run.events_fired, parallel[i].run.events_fired);

    // ...and the captures agree byte for byte.
    const auto a = slurp(serial[i].esst_path);
    const auto b = slurp(parallel[i].esst_path);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(a == b) << "ESST capture differs between serial and "
                           "parallel executions";
    std::remove(serial[i].esst_path.c_str());
    std::remove(parallel[i].esst_path.c_str());
  }
}

// Jobs of one run_jobs call share phase-A numerics by app config. A
// mixed matrix — two seeds, two PPM grids, one CPU-model override — must
// still give every job the traces and capture bytes of a Study of its own.
std::vector<JobSpec> mixed_matrix(const std::string& tag) {
  std::vector<JobSpec> specs;
  int cell = 0;
  auto add = [&](std::uint64_t seed, int ppm_nx, double mflops,
                 Experiment e) {
    JobSpec s;
    s.name = "cell" + std::to_string(cell++);
    s.config = core::fast_study_config();
    s.config.seed = seed;
    s.config.ppm.nx = ppm_nx;
    s.config.node.cpu_mflops = mflops;
    s.experiment = e;
    s.esst_path =
        ::testing::TempDir() + "/mixed_" + tag + "_" + s.name + ".esst";
    specs.push_back(std::move(s));
  };
  const double mflops = core::fast_study_config().node.cpu_mflops;
  for (const std::uint64_t seed : {0x1996u, 0x2024u}) {
    add(seed, 60, mflops, Experiment::kPpm);
    add(seed, 48, mflops, Experiment::kCombined);
    add(seed, 60, mflops, Experiment::kWavelet);
  }
  add(0x1996, 60, 2 * mflops, Experiment::kCombined);
  return specs;
}

TEST(ParallelDeterminism, SharedPhaseAMatchesStandaloneStudies) {
  const auto reference = mixed_matrix("standalone");
  std::vector<core::RunResult> standalone;
  for (const auto& spec : reference) {
    telemetry::EsstMeta meta;
    meta.experiment = spec.name;
    meta.seed = spec.config.seed;
    meta.ram_bytes = spec.config.node.ram_bytes;
    telemetry::EsstFileSink sink(spec.esst_path, meta);
    core::StudyConfig cfg = spec.config;
    cfg.drain_sink = &sink;
    core::Study study(cfg);
    standalone.push_back(run_experiment(study, spec.experiment));
  }

  for (const std::size_t workers : {0u, 1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << workers << " workers");
    const auto specs = mixed_matrix("w" + std::to_string(workers));
    const auto out = run_jobs(specs, workers);
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      SCOPED_TRACE(specs[i].name);
      ASSERT_FALSE(out[i].esst_failed) << out[i].esst_error;
      ASSERT_GT(out[i].run.trace.size(), 0u);
      EXPECT_TRUE(out[i].run.trace.records() ==
                  standalone[i].trace.records());
      EXPECT_EQ(out[i].run.events_fired, standalone[i].events_fired);
      const auto a = slurp(reference[i].esst_path);
      ASSERT_FALSE(a.empty());
      EXPECT_TRUE(slurp(out[i].esst_path) == a)
          << "ESST capture differs from the standalone Study's";
      std::remove(out[i].esst_path.c_str());
    }
  }
  for (const auto& spec : reference) std::remove(spec.esst_path.c_str());
}

TEST(ParallelDeterminism, OutcomesKeepSubmissionOrder) {
  auto specs = capture_matrix("order");
  for (auto& s : specs) s.esst_path.clear();  // no captures needed
  const auto outcomes = run_jobs(specs, 4);
  ASSERT_EQ(outcomes.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(outcomes[i].name, specs[i].name);
  }
}

TEST(ParallelDeterminism, BodyJobsRunCustomWork) {
  JobSpec s;
  s.name = "custom";
  s.config = core::fast_study_config();
  s.body = [](core::Study& study) { return study.run_baseline(); };
  const auto out = run_jobs({s}, 2);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_GT(out[0].run.trace.size(), 0u);
  EXPECT_GT(out[0].run.events_fired, 0u);
}

}  // namespace
}  // namespace ess::exec
