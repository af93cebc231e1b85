// bench/harness — the unified bench runner.
//
// One binary replaces "run every fig/table/ablation target by hand": it
//   1. runs the five canonical experiments in-process through the parallel
//      executor (exec::run_jobs) and checks the characterization
//      invariants the paper's Table 1 and figures pin down (R/W mix,
//      size classes, request rates);
//   2. measures single-thread engine throughput (events/sec) with a
//      schedule/fire and a schedule/cancel microloop;
//   3. fans the sibling bench binaries (figN_*, table1_*, ablation_*,
//      ext_*) out over the same thread pool as subprocesses and collects
//      their exit codes and wall times;
// and emits the whole picture as BENCH_results.json so the perf
// trajectory is tracked run over run. Exit code 0 iff every invariant
// held and every target passed.
//
//   harness [--fast] [--jobs N] [--json PATH] [--no-targets] [--no-engine]
//
// --fast sets ESS_FAST=1 for this process and every child (the smoke
// configuration CI uses); --jobs defaults to ESS_JOBS or the hardware
// concurrency.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/characterize.hpp"
#include "analysis/parallel.hpp"
#include "bench/common.hpp"
#include "core/presets.hpp"
#include "pdes/combined.hpp"
#include "telemetry/esst.hpp"
#include "trace/trace_set.hpp"
#include "util/rng.hpp"
#include "exec/experiments.hpp"
#include "exec/runner.hpp"
#include "exec/thread_pool.hpp"
#include "sim/engine.hpp"

namespace {

using namespace ess;

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// ---- characterization invariants -----------------------------------------

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

/// The Table 1 / figure invariants the CI smoke gate keys on. Tolerances
/// match the per-figure binaries (±15 pp on app mixes, ±1 pp on the
/// write-only baseline).
std::vector<Check> experiment_checks(exec::Experiment e,
                                     const analysis::TraceSummary& s,
                                     const analysis::TraceSummary* baseline) {
  auto near = [](double v, double paper, double tol) {
    return std::abs(v - paper) <= tol;
  };
  std::vector<Check> cs;
  auto add = [&](std::string name, bool ok, std::string detail) {
    cs.push_back({std::move(name), ok, std::move(detail)});
  };
  const std::string tag = exec::to_string(e);
  switch (e) {
    case exec::Experiment::kBaseline:
      add(tag + ": 0% reads (paper: 0%)", near(s.mix.read_pct, 0.0, 1.0),
          bench::fmt("%.1f%%", s.mix.read_pct));
      add(tag + ": ~0.9 req/s (paper: 0.9)",
          s.mix.requests_per_sec > 0.3 && s.mix.requests_per_sec < 2.0,
          bench::fmt("%.2f/s", s.mix.requests_per_sec));
      break;
    case exec::Experiment::kPpm:
      add(tag + ": ~4% reads (paper: 4%)", near(s.mix.read_pct, 4.0, 15.0),
          bench::fmt("%.1f%%", s.mix.read_pct));
      add(tag + ": 1 KB class present", s.pct_1k > 10.0,
          bench::fmt("%.1f%% at 1 KB", s.pct_1k));
      break;
    case exec::Experiment::kWavelet:
      add(tag + ": ~49% reads (paper: 49%)", near(s.mix.read_pct, 49.0, 15.0),
          bench::fmt("%.1f%%", s.mix.read_pct));
      add(tag + ": 4 KB paging class present", s.pct_4k > 10.0,
          bench::fmt("%.1f%% at 4 KB", s.pct_4k));
      break;
    case exec::Experiment::kNBody:
      // The ~13% read share only converges at the paper's full step count;
      // the scale-independent invariant (fig4's) is write dominance.
      add(tag + ": write dominated (paper: 87%)",
          s.mix.write_pct > (bench::fast_mode() ? 50.0 : 60.0),
          bench::fmt("%.1f%%", s.mix.write_pct));
      break;
    case exec::Experiment::kCombined:
      if (baseline != nullptr) {
        add(tag + ": rate >> baseline",
            s.mix.requests_per_sec > baseline->mix.requests_per_sec * 3,
            bench::fmt("%.2f/s", s.mix.requests_per_sec) + " vs " +
                bench::fmt("%.2f/s", baseline->mix.requests_per_sec));
      }
      add(tag + ": 16-32 KB class appears",
          s.max_request_bytes > 16 * 1024 &&
              s.max_request_bytes <= 32 * 1024,
          bench::fmt("max %.0f KB", s.max_request_bytes / 1024.0));
      break;
  }
  return cs;
}

// ---- engine microbenchmarks ----------------------------------------------

struct EngineBench {
  double fire_events_per_sec = 0;
  double cancel_events_per_sec = 0;
};

/// Single-thread engine throughput. schedule/fire exercises the slab and
/// the SmallFunction path end to end; schedule/cancel exercises the
/// generation-stamp bookkeeping that replaced the hash maps.
EngineBench engine_microbench() {
  EngineBench out;
  constexpr std::uint64_t kEvents = 2'000'000;
  {
    sim::Engine eng;
    std::uint64_t sum = 0;
    const double t0 = now_seconds();
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      eng.schedule_at(i, [&sum, i] { sum += i; });
      if ((i & 1023) == 1023) eng.run_until(i);
    }
    eng.run_until(kEvents);
    const double dt = now_seconds() - t0;
    if (sum == 0) std::abort();  // keep the loop observable
    out.fire_events_per_sec = static_cast<double>(kEvents) / dt;
  }
  {
    sim::Engine eng;
    std::uint64_t fired = 0;
    const double t0 = now_seconds();
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const auto id = eng.schedule_at(i, [&fired] { ++fired; });
      if ((i & 1) == 0) eng.cancel(id);  // half the events are cancelled
      if ((i & 1023) == 1023) eng.run_until(i);
    }
    eng.run_until(kEvents);
    const double dt = now_seconds() - t0;
    out.cancel_events_per_sec = static_cast<double>(kEvents) / dt;
  }
  return out;
}

// ---- analysis scan microbenchmark ----------------------------------------

struct AnalysisScanBench {
  std::uint64_t records = 0;
  struct Level {
    std::size_t jobs = 0;
    double records_per_sec = 0;
  };
  std::vector<Level> levels;
  bool identical = true;  // every jobs level matched the serial result
};

/// Characterization throughput over a synthetic ESST capture at several
/// job counts — the zero-copy mmap scan path end to end. The numbers land
/// in BENCH_results.json (the "scan" section) next to the engine figures
/// so scan-path regressions show up in the same trajectory.
AnalysisScanBench analysis_scan_microbench() {
  AnalysisScanBench out;
  out.records = bench::fast_mode() ? 100'000 : 2'000'000;
  const std::string path = bench::out_dir() + "/harness_scan.esst";
  {
    trace::TraceSet ts("scan", 1);
    Rng rng(7);
    for (std::uint64_t i = 0; i < out.records; ++i) {
      trace::Record r;
      r.timestamp = static_cast<SimTime>(i) * 900 +
                    static_cast<SimTime>(rng.uniform(400));
      r.sector = static_cast<std::uint32_t>(rng.uniform(1'018'080));
      r.size_bytes = 1024u << rng.uniform(5);
      r.is_write = static_cast<std::uint8_t>(rng.uniform(4) != 0);
      ts.add(r);
    }
    ts.set_duration(static_cast<SimTime>(out.records) * 900 + sec(1));
    telemetry::write_esst_file(ts, path);
  }
  telemetry::StreamSummary::Result serial;
  for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
    const double t0 = now_seconds();
    const auto scan = analysis::scan_esst(path, jobs);
    const double dt = now_seconds() - t0;
    const auto r = scan.summary.result("scan");
    if (jobs == 1) {
      serial = r;
    } else {
      out.identical &= r.records == serial.records &&
                       r.reads == serial.reads &&
                       r.writes == serial.writes &&
                       r.size_pct == serial.size_pct &&
                       r.band_pct == serial.band_pct;
    }
    out.levels.push_back(
        {jobs, dt > 0 ? static_cast<double>(out.records) / dt : 0.0});
  }
  std::filesystem::remove(path);
  return out;
}

// ---- PDES shard-scaling section ------------------------------------------

struct PdesRow {
  int nodes = 0;
  std::size_t shards = 0;
  std::size_t jobs = 0;
  double wall_seconds = 0;
  /// Serial wall at the same node count / this row's wall; 1.0 on the
  /// reference rows themselves.
  double speedup_vs_serial = 1.0;
  std::uint64_t messages = 0;
  std::uint64_t windows = 0;        // windows that paid the serialized drain
  std::uint64_t fused_windows = 0;  // quiescent windows that skipped it
  std::uint64_t records = 0;
  bool completed = false;
  bool identical_to_serial = true;
};

/// The sharded-machine scaling matrix: for each node count, a serial
/// reference run (1 shard, inline pool) and a sharded run, every sharded
/// row's per-node traces compared record for record against the serial
/// ones. Fast mode stops at 64 nodes; the full matrix carries the
/// 1024-node headline row. The workload stays at the reduced capture
/// scale at every size — the axis is the node count.
std::vector<PdesRow> pdes_scaling_bench() {
  const core::StudyConfig scfg = core::fast_study_config();
  struct Cell {
    int nodes;
    std::size_t shards, jobs;
  };
  std::vector<Cell> cells;
  if (bench::fast_mode()) {
    cells = {{16, 1, 1}, {16, 4, 4}, {64, 1, 1}, {64, 4, 4}};
  } else {
    cells = {{64, 1, 1},   {64, 8, 8},   {256, 1, 1},
             {256, 8, 8},  {1024, 1, 1}, {1024, 8, 8}};
  }
  std::vector<PdesRow> rows;
  std::vector<trace::TraceSet> serial_ref;
  double serial_wall = 0;  // cells are ordered serial-first per node count
  for (const auto& c : cells) {
    auto r = pdes::run_combined(c.nodes, c.shards, c.jobs, scfg);
    PdesRow row;
    row.nodes = c.nodes;
    row.shards = c.shards;
    row.jobs = c.jobs;
    row.wall_seconds = r.wall_seconds;
    row.messages = r.stats.sends;
    row.windows = r.stats.windows;
    row.fused_windows = r.stats.fused_windows;
    for (const auto& t : r.traces) row.records += t.size();
    row.completed = r.completed;
    if (c.shards == 1 && c.jobs == 1) {
      serial_ref = std::move(r.traces);
      serial_wall = r.wall_seconds;
    } else {
      row.identical_to_serial =
          pdes::traces_identical(serial_ref, r.traces);
      if (r.wall_seconds > 0) {
        row.speedup_vs_serial = serial_wall / r.wall_seconds;
      }
    }
    rows.push_back(row);
  }
  return rows;
}

// ---- subprocess bench targets --------------------------------------------

/// Every standalone bench binary the harness supervises (micro_substrate
/// is google-benchmark-paced and excluded).
const char* const kTargets[] = {
    "fig1_baseline",       "fig2_ppm",
    "fig3_wavelet",        "fig4_nbody",
    "fig5_combined_size",  "fig6_combined_sectors",
    "fig7_spatial",        "fig8_temporal",
    "table1_rw_mix",       "ablation_trace_overhead",
    "ablation_readahead",  "ablation_elevator",
    "ablation_memory",     "ablation_atime",
    "ext_synthetic_match", "ext_pious_striping",
    "ext_cluster_average", "ext_replay_tuning",
    "ext_region_decomposition",
    "ext_checkpoint_class", "ext_parallel_machine",
    "ext_analysis_throughput", "ext_pdes_scaling",
    "ext_scan_scaling",        "ext_merge_scaling",
};

struct TargetOutcome {
  std::string name;
  int exit_code = -1;  // -1: binary not found (skipped)
  double wall_seconds = 0;
};

TargetOutcome run_target(const std::filesystem::path& bin_dir,
                         const std::string& name,
                         const std::string& log_dir) {
  TargetOutcome out;
  out.name = name;
  const auto bin = bin_dir / name;
  std::error_code ec;
  if (!std::filesystem::exists(bin, ec)) return out;
  std::string cmd = "'";
  cmd += bin.string();
  cmd += "' > '";
  cmd += log_dir;
  cmd += "/";
  cmd += name;
  cmd += ".log' 2>&1";
  const double t0 = now_seconds();
  const int rc = std::system(cmd.c_str());
  out.wall_seconds = now_seconds() - t0;
  out.exit_code = rc == -1 ? 127 : (rc & 0x7f) != 0 ? 128 : (rc >> 8) & 0xff;
  return out;
}

// ---- JSON ----------------------------------------------------------------

/// Minimal JSON writer: enough for this schema, no dependency.
class Json {
 public:
  explicit Json(std::ostream& os) : os_(os) {}
  void open(char c) {
    comma();
    os_ << c;
    fresh_ = true;
  }
  void close(char c) {
    os_ << c;
    fresh_ = false;
  }
  void key(const char* k) {
    comma();
    str(k);
    os_ << ':';
    fresh_ = true;
  }
  void value(const std::string& s) {
    comma();
    str(s);
  }
  void value(double v) {
    comma();
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    os_ << buf;
  }
  void value(std::uint64_t v) {
    comma();
    os_ << v;
  }
  void value(bool b) {
    comma();
    os_ << (b ? "true" : "false");
  }

 private:
  void comma() {
    if (!fresh_) os_ << ',';
    fresh_ = false;
  }
  void str(const std::string& s) {
    os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') os_ << '\\' << c;
      else if (c == '\n') os_ << "\\n";
      else if (static_cast<unsigned char>(c) < 0x20) os_ << ' ';
      else os_ << c;
    }
    os_ << '"';
  }
  std::ostream& os_;
  bool fresh_ = true;
};

struct ExperimentRow {
  std::string name;
  double wall_seconds = 0;
  double sim_seconds = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t records = 0;
  analysis::TraceSummary summary;
  bool checks_ok = true;
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t jobs = exec::default_workers();
  std::string json_path = "BENCH_results.json";
  bool run_targets = true;
  bool run_engine = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      setenv("ESS_FAST", "1", 1);
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobs = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--no-targets") {
      run_targets = false;
    } else if (arg == "--no-engine") {
      run_engine = false;
    } else {
      std::fprintf(stderr,
                   "usage: harness [--fast] [--jobs N] [--json PATH] "
                   "[--no-targets] [--no-engine]\n");
      return 2;
    }
  }

  const double t_start = now_seconds();
  std::printf("bench/harness: %zu worker(s)%s\n", jobs,
              bench::fast_mode() ? ", ESS_FAST=1" : "");

  // 1. The canonical experiment matrix, through the parallel executor.
  std::vector<exec::JobSpec> specs;
  for (const exec::Experiment e : exec::all_experiments()) {
    exec::JobSpec spec;
    spec.name = exec::to_string(e);
    spec.config = bench::study_config();
    spec.experiment = e;
    specs.push_back(std::move(spec));
  }
  const double t_experiments = now_seconds();
  const auto outcomes = exec::run_jobs(specs, jobs);
  // Wall time of the sections that actually fan out over the pool — the
  // honest denominator for the parallel-speedup figure. The engine/scan
  // microbenches and the PDES matrix run serial by design and must not
  // dilute it.
  double fanned_wall = now_seconds() - t_experiments;

  std::vector<ExperimentRow> rows;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ExperimentRow row;
    row.name = outcomes[i].name;
    row.wall_seconds = outcomes[i].wall_seconds;
    row.sim_seconds = to_seconds(outcomes[i].run.run_time);
    row.events_fired = outcomes[i].run.events_fired;
    row.records = outcomes[i].run.trace.size();
    row.summary = analysis::summarize(outcomes[i].run.trace);
    rows.push_back(std::move(row));
  }

  bool all_ok = true;
  std::vector<Check> checks;
  const analysis::TraceSummary* baseline = &rows[0].summary;
  std::printf("\nCharacterization invariants:\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto e = specs[i].experiment;
    for (auto& c : experiment_checks(e, rows[i].summary,
                                     e == exec::Experiment::kCombined
                                         ? baseline
                                         : nullptr)) {
      c.ok = bench::check(c.name.c_str(), c.ok, c.detail);
      rows[i].checks_ok &= c.ok;
      all_ok &= c.ok;
      checks.push_back(std::move(c));
    }
  }

  std::printf("\nPer-experiment timings:\n");
  std::printf("  %-10s %9s %12s %12s %12s\n", "experiment", "wall s",
              "events", "events/s", "records/s");
  for (const auto& row : rows) {
    std::printf("  %-10s %9.2f %12llu %12.0f %12.0f\n", row.name.c_str(),
                row.wall_seconds,
                static_cast<unsigned long long>(row.events_fired),
                row.wall_seconds > 0 ? static_cast<double>(row.events_fired) /
                                           row.wall_seconds
                                     : 0.0,
                row.wall_seconds > 0 ? static_cast<double>(row.records) /
                                           row.wall_seconds
                                     : 0.0);
  }

  // 2. Single-thread engine throughput + characterization scan throughput.
  EngineBench eng;
  AnalysisScanBench scan;
  if (run_engine) {
    eng = engine_microbench();
    std::printf("\nEngine microbench (single thread):\n");
    std::printf("  schedule+fire:   %12.0f events/s\n",
                eng.fire_events_per_sec);
    std::printf("  schedule+cancel: %12.0f events/s\n",
                eng.cancel_events_per_sec);
    scan = analysis_scan_microbench();
    std::printf("ESST scan microbench (%llu records):\n",
                static_cast<unsigned long long>(scan.records));
    for (const auto& lvl : scan.levels) {
      std::printf("  jobs=%zu: %14.0f records/s\n", lvl.jobs,
                  lvl.records_per_sec);
    }
    all_ok &= scan.identical;
    if (!scan.identical) {
      std::printf("  !! parallel scan diverged from serial\n");
    }
  }

  // 3. The PDES shard-scaling matrix, in-process.
  const auto pdes_rows = pdes_scaling_bench();
  std::printf("\nPDES shard scaling (combined load, capture scale):\n");
  std::printf("  %6s %7s %5s %9s %8s %10s %9s %10s  %s\n", "nodes",
              "shards", "jobs", "wall s", "speedup", "msgs", "windows",
              "records", "vs serial");
  for (const auto& r : pdes_rows) {
    const bool serial = r.shards == 1 && r.jobs == 1;
    const bool row_ok = r.completed && r.identical_to_serial;
    all_ok &= row_ok;
    std::printf("  %6d %7zu %5zu %9.2f %7.2fx %10llu %9llu %10llu  %s%s\n",
                r.nodes, r.shards, r.jobs, r.wall_seconds,
                r.speedup_vs_serial,
                static_cast<unsigned long long>(r.messages),
                static_cast<unsigned long long>(r.windows),
                static_cast<unsigned long long>(r.records),
                serial ? "(reference)"
                       : r.identical_to_serial ? "identical" : "DIVERGED",
                r.completed ? "" : "  !! CAPPED");
  }

  // 4. Every standalone bench target, fanned out as subprocesses.
  std::vector<TargetOutcome> targets;
  if (run_targets) {
    const auto bin_dir =
        std::filesystem::absolute(std::filesystem::path(argv[0]))
            .parent_path();
    const std::string log_dir = bench::out_dir() + "/logs";
    std::filesystem::create_directories(log_dir);
    std::vector<std::function<TargetOutcome()>> tjobs;
    for (const char* name : kTargets) {
      tjobs.emplace_back([&bin_dir, name, &log_dir] {
        return run_target(bin_dir, name, log_dir);
      });
    }
    const double t_targets = now_seconds();
    targets = exec::run_ordered(std::move(tjobs), jobs);
    fanned_wall += now_seconds() - t_targets;
    std::printf("\nBench targets (logs in %s):\n", log_dir.c_str());
    for (const auto& t : targets) {
      if (t.exit_code < 0) {
        std::printf("  [--] %-26s not built\n", t.name.c_str());
        continue;
      }
      const bool ok = t.exit_code == 0;
      all_ok &= ok;
      std::printf("  [%s] %-26s exit %d  %7.2f s\n", ok ? "OK" : "!!",
                  t.name.c_str(), t.exit_code, t.wall_seconds);
    }
  }

  const double total_wall = now_seconds() - t_start;
  double serial_estimate = 0;
  for (const auto& row : rows) serial_estimate += row.wall_seconds;
  for (const auto& t : targets) serial_estimate += t.wall_seconds;
  // Speedup over the fanned sections only: sum of per-job walls vs the
  // wall the pool actually took to run them. Dividing by total_wall (as an
  // earlier version did) charged the pool for the serial-only sections and
  // reported < 1x even when the fan-out was winning.
  const double parallel_speedup =
      fanned_wall > 0 ? serial_estimate / fanned_wall : 0.0;

  // 5. BENCH_results.json.
  {
    std::ofstream f(json_path);
    Json j(f);
    j.open('{');
    j.key("schema");
    j.value(std::string("ess-bench-results-v1"));
    j.key("fast_mode");
    j.value(bench::fast_mode());
    j.key("jobs");
    j.value(static_cast<std::uint64_t>(jobs));
    j.key("hardware_threads");
    j.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    j.key("total_wall_seconds");
    j.value(total_wall);
    j.key("serial_wall_seconds_estimate");
    j.value(serial_estimate);
    j.key("fanned_wall_seconds");
    j.value(fanned_wall);
    j.key("parallel_speedup_estimate");
    j.value(parallel_speedup);
    if (run_engine) {
      j.key("engine");
      j.open('{');
      j.key("schedule_fire_events_per_sec");
      j.value(eng.fire_events_per_sec);
      j.key("schedule_cancel_events_per_sec");
      j.value(eng.cancel_events_per_sec);
      j.close('}');
      j.key("scan");
      j.open('{');
      j.key("records");
      j.value(scan.records);
      j.key("identical_to_serial");
      j.value(scan.identical);
      j.key("levels");
      j.open('[');
      for (const auto& lvl : scan.levels) {
        j.open('{');
        j.key("jobs");
        j.value(static_cast<std::uint64_t>(lvl.jobs));
        j.key("records_per_sec");
        j.value(lvl.records_per_sec);
        j.close('}');
      }
      j.close(']');
      j.close('}');
    }
    j.key("pdes_scaling");
    j.open('[');
    for (const auto& r : pdes_rows) {
      j.open('{');
      j.key("nodes");
      j.value(static_cast<std::uint64_t>(r.nodes));
      j.key("shards");
      j.value(static_cast<std::uint64_t>(r.shards));
      j.key("jobs");
      j.value(static_cast<std::uint64_t>(r.jobs));
      j.key("wall_seconds");
      j.value(r.wall_seconds);
      j.key("speedup_vs_serial");
      j.value(r.speedup_vs_serial);
      j.key("messages");
      j.value(r.messages);
      j.key("windows");
      j.value(r.windows);
      j.key("fused_windows");
      j.value(r.fused_windows);
      j.key("records");
      j.value(r.records);
      j.key("completed");
      j.value(r.completed);
      j.key("identical_to_serial");
      j.value(r.identical_to_serial);
      j.close('}');
    }
    j.close(']');
    j.key("experiments");
    j.open('[');
    for (const auto& row : rows) {
      j.open('{');
      j.key("name");
      j.value(row.name);
      j.key("wall_seconds");
      j.value(row.wall_seconds);
      j.key("sim_seconds");
      j.value(row.sim_seconds);
      j.key("events_fired");
      j.value(row.events_fired);
      j.key("events_per_sec");
      j.value(row.wall_seconds > 0
                  ? static_cast<double>(row.events_fired) / row.wall_seconds
                  : 0.0);
      j.key("records");
      j.value(row.records);
      j.key("records_per_sec");
      j.value(row.wall_seconds > 0
                  ? static_cast<double>(row.records) / row.wall_seconds
                  : 0.0);
      j.key("read_pct");
      j.value(row.summary.mix.read_pct);
      j.key("write_pct");
      j.value(row.summary.mix.write_pct);
      j.key("requests_per_sec");
      j.value(row.summary.mix.requests_per_sec);
      j.key("pct_1k");
      j.value(row.summary.pct_1k);
      j.key("pct_4k");
      j.value(row.summary.pct_4k);
      j.key("max_request_bytes");
      j.value(static_cast<std::uint64_t>(row.summary.max_request_bytes));
      j.key("checks_passed");
      j.value(row.checks_ok);
      j.close('}');
    }
    j.close(']');
    j.key("invariants");
    j.open('[');
    for (const auto& c : checks) {
      j.open('{');
      j.key("name");
      j.value(c.name);
      j.key("ok");
      j.value(c.ok);
      j.key("detail");
      j.value(c.detail);
      j.close('}');
    }
    j.close(']');
    j.key("targets");
    j.open('[');
    for (const auto& t : targets) {
      j.open('{');
      j.key("name");
      j.value(t.name);
      j.key("exit_code");
      j.value(static_cast<double>(t.exit_code));
      j.key("wall_seconds");
      j.value(t.wall_seconds);
      j.close('}');
    }
    j.close(']');
    j.close('}');
    f << '\n';
  }

  std::printf(
      "\n%s in %.2f s (serial estimate %.2f s over %.2f s fanned, "
      "~%.2fx); %s\n",
      all_ok ? "PASS" : "FAIL", total_wall, serial_estimate, fanned_wall,
      parallel_speedup, json_path.c_str());
  return all_ok ? 0 : 1;
}
