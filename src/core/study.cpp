#include "core/study.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "kernel/node_kernel.hpp"
#include "telemetry/consumers.hpp"
#include "telemetry/snapshot.hpp"

namespace ess::core {
namespace {

/// Per-run live tap: fans the driver's record stream out to the caller's
/// sink and, when progress_period is set, to an incremental summary whose
/// snapshots print to stderr — visibility into the 2000 s baseline and
/// ~700 s combined runs while they are in flight.
class LiveTap {
 public:
  LiveTap(const StudyConfig& cfg, const std::string& name) {
    if (cfg.live_sink != nullptr) fan_.add(cfg.live_sink);
    if (cfg.progress_period > 0) {
      summary_ = std::make_unique<telemetry::StreamSummary>();
      emitter_ = std::make_unique<telemetry::SnapshotEmitter>(
          *summary_, cfg.progress_period,
          [name](const telemetry::Snapshot& s) {
            std::fprintf(stderr, "[%s] %s\n", name.c_str(),
                         telemetry::render_progress_line(s).c_str());
          });
      fan_.add(summary_.get());
      fan_.add(emitter_.get());  // after the summary: snapshots see the
                                 // record that triggered them
    }
    active_ = cfg.live_sink != nullptr || cfg.progress_period > 0;
  }

  void attach(kernel::NodeKernel& node) {
    if (active_) node.set_live_sink(&fan_);
  }
  void finish(SimTime duration) {
    if (active_) fan_.on_finish(duration);
  }

 private:
  telemetry::FanoutSink fan_;
  std::unique_ptr<telemetry::StreamSummary> summary_;
  std::unique_ptr<telemetry::SnapshotEmitter> emitter_;
  bool active_ = false;
};

}  // namespace

std::string to_string(AppKind k) {
  switch (k) {
    case AppKind::kPpm:
      return "PPM";
    case AppKind::kWavelet:
      return "Wavelet";
    case AppKind::kNBody:
      return "N-Body";
  }
  return "?";
}

Study::Study(StudyConfig cfg, PhaseAStore* store)
    : cfg_(std::move(cfg)),
      own_store_(store ? nullptr : std::make_unique<PhaseAStore>()),
      store_(store ? store : own_store_.get()) {}

const Artifacts& Study::artifacts(AppKind last) {
  const int want = static_cast<int>(last) + 1;
  if (assembled_ >= want) return artifacts_;

  // Claim the missing numerics most expensive first: a Study that finds
  // one already running in another thread moves on to the next, so
  // Studies sharing a store split the work instead of queueing on it.
  std::shared_future<apps::nbody::NBodyProfile> nbody;
  std::shared_future<apps::wavelet::WaveletProfile> wavelet;
  std::shared_future<apps::ppm::PpmProfile> ppm;
  if (want > 2) nbody = store_->nbody(cfg_.nbody);
  if (want > 1 && assembled_ < 2) wavelet = store_->wavelet(cfg_.wavelet);
  if (assembled_ < 1) ppm = store_->ppm(cfg_.ppm);

  // Assemble in stream order, so each app's trace draws the same Rng
  // positions however much of phase A was asked for before.
  if (!rng_) rng_.emplace(cfg_.seed);
  const double mflops = cfg_.node.cpu_mflops;
  if (assembled_ < 1) {
    artifacts_.ppm =
        apps::ppm::assemble(cfg_.ppm, store_->await(ppm), mflops, *rng_);
    assembled_ = 1;
  }
  if (want > 1 && assembled_ < 2) {
    artifacts_.wavelet = apps::wavelet::assemble(
        cfg_.wavelet, store_->await(wavelet), mflops, *rng_);
    assembled_ = 2;
  }
  if (want > 2) {
    artifacts_.nbody = apps::nbody::assemble(cfg_.nbody, store_->await(nbody),
                                             mflops, *rng_);
    assembled_ = 3;
  }
  return artifacts_;
}

const workload::OpTrace& Study::trace_for(AppKind kind) {
  const Artifacts& a = artifacts(kind);
  switch (kind) {
    case AppKind::kPpm:
      return a.ppm.trace;
    case AppKind::kWavelet:
      return a.wavelet.trace;
    case AppKind::kNBody:
      return a.nbody.trace;
  }
  throw std::logic_error("bad AppKind");
}

RunResult Study::run_baseline() {
  kernel::NodeKernel node(cfg_.node);
  LiveTap tap(cfg_, "Baseline");
  tap.attach(node);
  node.set_drain_sink(cfg_.drain_sink);
  node.run_for(cfg_.settle_time);
  const SimTime t0 = node.now();
  node.ioctl_trace(driver::TraceLevel::kStandard);
  node.run_for(cfg_.baseline_duration);
  node.ioctl_trace(driver::TraceLevel::kOff);
  RunResult res;
  res.trace = node.collect_trace("Baseline");
  tap.finish(node.now());
  res.trace.rebase(t0);
  res.trace.set_duration(cfg_.baseline_duration);
  res.run_time = cfg_.baseline_duration;
  res.events_fired = node.engine().fired();
  return res;
}

RunResult Study::run_single(AppKind kind) {
  return run_custom(to_string(kind), {trace_for(kind)});
}

RunResult Study::run_combined() {
  kernel::KernelConfig node_cfg = cfg_.node;
  node_cfg.max_coalesce_blocks = cfg_.combined_coalesce_blocks;
  node_cfg.readahead_ceiling_blocks = cfg_.combined_readahead_blocks;
  const Artifacts& a = artifacts();
  return run_custom("Combined",
                    {a.ppm.trace, a.wavelet.trace, a.nbody.trace}, 0,
                    node_cfg);
}

RunResult Study::run_custom(const std::string& name,
                            std::vector<workload::OpTrace> workloads,
                            SimTime duration,
                            std::optional<kernel::KernelConfig> node_override) {
  kernel::NodeKernel node(node_override ? *node_override : cfg_.node);
  LiveTap tap(cfg_, name);
  tap.attach(node);
  node.set_drain_sink(cfg_.drain_sink);

  // Stage every declared input (and the program images) before tracing, as
  // the experimenters did: instrumentation is switched on by ioctl once
  // the system is set up.
  for (const auto& w : workloads) {
    if (w.image_bytes > 0) {
      node.stage_input_file("/bin/" + w.app_name, w.image_bytes,
                            node.config().layout.image_region_block);
      // The binaries are hot in the buffer cache from recent use (compile,
      // previous runs); a larger-than-cache image stays partially cold.
      node.warm_file("/bin/" + w.app_name, w.image_warm_fraction);
    }
    for (const auto& f : w.files) {
      if (!f.create && f.input_size > 0) {
        node.stage_input_file(f.path, f.input_size, f.goal_block);
      }
    }
  }
  node.fsys().sync();
  node.run_for(cfg_.settle_time);

  const SimTime t0 = node.now();
  node.ioctl_trace(driver::TraceLevel::kStandard);
  for (auto& w : workloads) node.spawn(std::move(w));

  RunResult res;
  if (duration > 0) {
    node.run_for(duration);
    res.completed = node.all_done();
  } else {
    res.completed = node.run_until_done(t0 + cfg_.max_run_time);
    // Let the tail of dirty data and the final paging settle briefly, as a
    // real measurement would keep capturing for a few seconds.
    node.run_for(sec(35));
  }
  node.ioctl_trace(driver::TraceLevel::kOff);
  res.trace = node.collect_trace(name);
  tap.finish(node.now());
  res.trace.rebase(t0);
  res.run_time = res.trace.duration();
  res.events_fired = node.engine().fired();
  return res;
}

std::vector<analysis::TraceSummary> Study::table1(bool include_combined) {
  std::vector<analysis::TraceSummary> rows;
  rows.push_back(analysis::summarize(run_baseline().trace));
  rows.push_back(analysis::summarize(run_single(AppKind::kPpm).trace));
  rows.push_back(analysis::summarize(run_single(AppKind::kWavelet).trace));
  rows.push_back(analysis::summarize(run_single(AppKind::kNBody).trace));
  if (include_combined) {
    rows.push_back(analysis::summarize(run_combined().trace));
  }
  return rows;
}

}  // namespace ess::core
