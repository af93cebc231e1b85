#include "exec/experiments.hpp"

#include <chrono>
#include <memory>
#include <stdexcept>

#include "cluster/ethernet.hpp"
#include "exec/runner.hpp"
#include "telemetry/esst.hpp"

namespace ess::exec {

const char* to_string(Experiment e) {
  switch (e) {
    case Experiment::kBaseline:
      return "baseline";
    case Experiment::kPpm:
      return "ppm";
    case Experiment::kWavelet:
      return "wavelet";
    case Experiment::kNBody:
      return "nbody";
    case Experiment::kCombined:
      return "combined";
  }
  return "?";
}

bool experiment_from_name(const std::string& name, Experiment& out) {
  for (const Experiment e : all_experiments()) {
    if (name == to_string(e)) {
      out = e;
      return true;
    }
  }
  return false;
}

const std::vector<Experiment>& all_experiments() {
  static const std::vector<Experiment> kAll = {
      Experiment::kBaseline, Experiment::kPpm, Experiment::kWavelet,
      Experiment::kNBody, Experiment::kCombined};
  return kAll;
}

core::RunResult run_experiment(core::Study& study, Experiment e) {
  switch (e) {
    case Experiment::kBaseline:
      return study.run_baseline();
    case Experiment::kPpm:
      return study.run_single(core::AppKind::kPpm);
    case Experiment::kWavelet:
      return study.run_single(core::AppKind::kWavelet);
    case Experiment::kNBody:
      return study.run_single(core::AppKind::kNBody);
    case Experiment::kCombined:
      return study.run_combined();
  }
  throw std::logic_error("bad Experiment");
}

std::vector<JobSpec> cluster_jobs(int nodes, const core::StudyConfig& study,
                                  Experiment experiment) {
  const SimTime barrier = cluster::EthernetModel{}.barrier_time(nodes);
  std::vector<JobSpec> specs;
  for (int n = 0; n < nodes; ++n) {
    JobSpec spec;
    spec.name = "node" + std::to_string(n + 1);
    spec.config = study;
    spec.config.seed += static_cast<std::uint64_t>(n) * 0x9e3779b97f4a7c15ULL;
    spec.config.node.seed = spec.config.seed;
    // The applications synchronize before computing: the barrier costs
    // network time, and nodes joining it at slightly different times
    // shift each node's phase a little. Both fold into the settle gap.
    spec.config.settle_time += barrier + static_cast<SimTime>(n) * usec(500);
    spec.experiment = experiment;
    specs.push_back(std::move(spec));
  }
  return specs;
}

namespace {

JobOutcome run_one(const JobSpec& spec, core::PhaseAStore& store) {
  JobOutcome out;
  out.name = spec.name;
  out.esst_path = spec.esst_path;

  core::StudyConfig cfg = spec.config;  // private copy: jobs share nothing
  std::unique_ptr<telemetry::EsstFileSink> sink;
  if (!spec.esst_path.empty()) {
    telemetry::EsstMeta meta;
    meta.experiment = spec.name;
    meta.seed = cfg.seed;
    meta.ram_bytes = cfg.node.ram_bytes;
    sink = std::make_unique<telemetry::EsstFileSink>(spec.esst_path, meta);
    cfg.drain_sink = sink.get();
  }

  const auto t0 = std::chrono::steady_clock::now();
  core::Study study(std::move(cfg), &store);
  out.run = spec.body ? spec.body(study)
                      : run_experiment(study, spec.experiment);
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (sink) {
    out.esst_failed = sink->failed();
    out.esst_error = sink->error();
  }
  return out;
}

}  // namespace

std::vector<JobOutcome> run_jobs(const std::vector<JobSpec>& specs,
                                 std::size_t workers) {
  core::PhaseAStore store;  // phase A computed once per distinct config
  std::vector<std::function<JobOutcome()>> jobs;
  jobs.reserve(specs.size());
  for (const auto& spec : specs) {
    jobs.emplace_back([&spec, &store] { return run_one(spec, store); });
  }
  return run_ordered(std::move(jobs), workers);
}

}  // namespace ess::exec
