// The characterization study: the paper's four experiment families on one
// node — baseline (no applications), each application alone, and all three
// combined — producing the traces every figure and table derives from.
//
// This is the primary public API of the library:
//
//   ess::core::Study study(ess::core::StudyConfig{});
//   auto baseline = study.run_baseline();
//   auto combined = study.run_combined();
//   auto table = study.table1();
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "apps/nbody/nbody_app.hpp"
#include "apps/ppm/ppm_app.hpp"
#include "apps/wavelet/wavelet_app.hpp"
#include "core/phase_a_store.hpp"
#include "kernel/config.hpp"
#include "telemetry/sink.hpp"
#include "trace/trace_set.hpp"
#include "workload/op.hpp"

namespace ess::core {

/// The applications, in the order their trace assembly draws from the
/// Study's Rng stream.
enum class AppKind { kPpm, kWavelet, kNBody };

std::string to_string(AppKind k);

struct StudyConfig {
  kernel::KernelConfig node;           // hardware + OS parameters
  SimTime baseline_duration = sec(2000);  // as in the paper
  SimTime max_run_time = sec(6000);    // safety cap on application runs
  SimTime settle_time = sec(2);        // staging -> tracing-on gap
  // The combined run enlarges kernel I/O buffering, the paper's stated
  // cause of the 16-32 KB request class.
  std::uint32_t combined_coalesce_blocks = 32;
  std::uint32_t combined_readahead_blocks = 32;
  std::uint64_t seed = 0x1996;

  // Streaming telemetry taps, applied to every run (neither is owned).
  // `live_sink` sees each record at driver emission time; `drain_sink` sees
  // records as the trace daemon drains the procfs ring (attach a
  // telemetry::EsstFileSink there to capture an indexed ESST trace file).
  // Timestamps are raw node time (tracing turns on at ~settle_time); the
  // returned RunResult::trace is rebased to tracing-on as before.
  telemetry::Sink* live_sink = nullptr;
  telemetry::Sink* drain_sink = nullptr;
  // >0: print an incremental characterization line to stderr every
  // `progress_period` of sim-time while a run is in flight.
  SimTime progress_period = 0;

  apps::ppm::PpmConfig ppm;
  apps::wavelet::WaveletConfig wavelet;
  apps::nbody::NBodyConfig nbody;
};

/// Result of one experiment run.
struct RunResult {
  trace::TraceSet trace;
  bool completed = true;     // all processes finished before the cap
  SimTime run_time = 0;      // virtual time from tracing-on to collection
  /// Simulation events the node's engine fired over the whole run (setup
  /// included) — the denominator-free work metric the bench harness turns
  /// into events/sec.
  std::uint64_t events_fired = 0;
};

/// Cached phase-A outputs (real numerics + op traces).
struct Artifacts {
  apps::ppm::PpmRunResult ppm;
  apps::wavelet::WaveletRunResult wavelet;
  apps::nbody::NBodyRunResult nbody;
};

class Study {
 public:
  /// With a `store` (which must outlive the Study), phase-A numerics are
  /// shared with every other Study using it; without one the Study
  /// computes its own. Traces are identical either way.
  explicit Study(StudyConfig cfg, PhaseAStore* store = nullptr);

  /// Phase A on demand for the apps up to `last` in AppKind order; cached
  /// for all subsequent runs. Apps after `last` stay default-constructed
  /// until asked for.
  const Artifacts& artifacts(AppKind last = AppKind::kNBody);

  RunResult run_baseline();
  RunResult run_single(AppKind kind);
  RunResult run_combined();

  /// Run arbitrary workloads (synthetic traces, ablations) under the same
  /// protocol. `duration` of 0 means run until the workloads finish.
  RunResult run_custom(const std::string& name,
                       std::vector<workload::OpTrace> workloads,
                       SimTime duration = 0,
                       std::optional<kernel::KernelConfig> node_override = {});

  /// Table 1: baseline + the three single-application rows (and the
  /// combined row, which the paper discusses but does not tabulate).
  std::vector<analysis::TraceSummary> table1(bool include_combined = false);

  const StudyConfig& config() const { return cfg_; }
  StudyConfig& config() { return cfg_; }

 private:
  const workload::OpTrace& trace_for(AppKind kind);

  StudyConfig cfg_;
  std::unique_ptr<PhaseAStore> own_store_;
  PhaseAStore* store_;
  Artifacts artifacts_;
  std::optional<Rng> rng_;  // the assembly stream, past the assembled apps
  int assembled_ = 0;       // apps assembled so far, in AppKind order
};

}  // namespace ess::core
