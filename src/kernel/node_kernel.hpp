// NodeKernel: one Beowulf node — CPU scheduler, syscall layer, VM, file
// system, buffer cache, instrumented driver, disk, and the system daemons
// whose background I/O the paper's baseline experiment measures.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "block/buffer_cache.hpp"
#include "driver/ide_driver.hpp"
#include "fs/ext2lite.hpp"
#include "kernel/config.hpp"
#include "kernel/fabric_iface.hpp"
#include "kernel/process.hpp"
#include "mm/vm.hpp"
#include "sim/engine.hpp"
#include "trace/trace_set.hpp"
#include "util/rng.hpp"
#include "workload/op.hpp"

namespace ess::kernel {

class NodeKernel {
 public:
  explicit NodeKernel(KernelConfig cfg, int node_id = 0);

  /// Multi-node form: the node shares `engine` with its peers (one virtual
  /// clock for the whole machine). Construction does not settle setup I/O
  /// (the machine owner settles once after all nodes exist).
  NodeKernel(sim::Engine& engine, KernelConfig cfg, int node_id);

  ~NodeKernel();

  NodeKernel(const NodeKernel&) = delete;
  NodeKernel& operator=(const NodeKernel&) = delete;

  // ---- setup phase (normally before tracing is switched on) ----

  /// Stage an input file of `size` bytes, contiguous at `goal_block`
  /// (0 = allocator default region for application data).
  fs::Ino stage_input_file(const std::string& path, std::uint64_t size,
                           std::uint64_t goal_block = 0);

  /// Pull the first `fraction` of a staged file through the buffer cache
  /// (reads it and waits for the I/O in virtual time). Models binaries
  /// partially hot in the cache from recent use; the cold tail still
  /// demand-loads from disk during the run.
  void warm_file(const std::string& path, double fraction = 1.0);

  /// The paper's ioctl: toggle driver instrumentation without a reboot.
  void ioctl_trace(driver::TraceLevel level);

  // ---- streaming telemetry taps (neither is owned; both may be null) ----

  /// Publishes every record at driver emission time — live consumers see
  /// the run in flight (progress snapshots, streaming characterization).
  void set_live_sink(telemetry::Sink* sink);

  /// Publishes records as the trace-drain daemon moves them out of the
  /// procfs ring — the modelled trace file. Attach a telemetry::EsstFileSink
  /// and the drain writes an indexed ESST trace to the host disk while the
  /// simulated drain I/O still hits the simulated disk, as in the paper.
  void set_drain_sink(telemetry::Sink* sink) { drain_sink_ = sink; }

  // ---- running ----

  /// Start a process executing `trace`. Its program image is staged at
  /// /bin/<app_name> on first use (subsequent spawns share it, as text
  /// pages of one binary would be).
  mm::Pid spawn(workload::OpTrace trace);

  /// Create the process without scheduling it (used when the caller still
  /// has to bind a rank before the first op may run); start() releases it.
  mm::Pid spawn_deferred(workload::OpTrace trace);
  void start(mm::Pid pid) { make_ready(pid); }

  /// Attach a message fabric and give a process a PVM rank. The caller
  /// (the multi-node machine) also registers the (rank -> node, pid)
  /// binding with the fabric itself.
  void set_fabric(MessageFabric* fabric) { fabric_ = fabric; }
  void set_rank(mm::Pid pid, int rank) { procs_.at(pid)->rank = rank; }

  /// Advance virtual time by `d`, executing everything due.
  void run_for(SimTime d);

  /// Run until every spawned process finished or `max_time` is reached.
  /// Returns true if all processes completed.
  bool run_until_done(SimTime max_time);

  bool all_done() const;
  SimTime now() const { return engine_.now(); }

  // ---- results ----

  /// Drain the trace ring and return everything captured so far.
  trace::TraceSet collect_trace(const std::string& experiment_name);

  const Process& process(mm::Pid pid) const { return *procs_.at(pid); }
  std::vector<mm::Pid> pids() const;

  // ---- subsystem access (tests, analysis, cluster layer) ----

  sim::Engine& engine() { return engine_; }

  /// Resume a process blocked by an external facility (the PVM fabric).
  /// `charge` is kernel CPU owed on wakeup (unpack cost).
  void external_resume(mm::Pid pid, SimTime charge) {
    resume_process(pid, charge);
  }
  /// Block the currently-running process on an external facility. Must be
  /// called from an op executor context (see exec_recv).
  void external_block(Process& p) { block_process(p); }
  fs::Ext2Lite& fsys() { return *fs_; }
  block::BufferCache& cache() { return *cache_; }
  mm::Vm& vm() { return *vm_; }
  disk::Drive& drive() { return *drive_; }
  driver::IdeDriver& ide() { return *driver_; }
  /// The procfs trace ring (drop accounting lives here).
  trace::RingBuffer& trace_ring() { return ring_; }
  /// Null unless cfg.fault.active() at construction.
  fault::FaultInjector* fault_injector() { return faults_.get(); }
  const KernelConfig& config() const { return cfg_; }
  int node_id() const { return node_id_; }
  Rng& rng() { return rng_; }

  /// Convert a floating-point operation count to DX4 CPU time.
  SimTime flops_to_time(double flops) const {
    return static_cast<SimTime>(flops / cfg_.cpu_mflops);  // us = flops/MFLOPS
  }

 private:
  // Scheduling core (node_kernel.cpp).
  void make_ready(mm::Pid pid);
  void dispatch();
  void continue_process(mm::Pid pid, SimTime budget);
  void block_process(Process& p);
  void resume_process(mm::Pid pid, SimTime extra_charge);
  void finish_process(Process& p);
  void release_cpu();

  // Op executors; return true if the op (or a slice of it) was scheduled /
  // blocked and continue_process must return.
  /// Run a CPU slice from either the pending-charge pool (charge_pool) or
  /// the current ComputeOp's remaining time.
  void run_cpu_slice(mm::Pid pid, SimTime budget, bool charge_pool);
  bool exec_touch(Process& p, workload::TouchOp& op);
  bool exec_read(Process& p, const workload::ReadOp& op);
  void exec_write(Process& p, const workload::WriteOp& op);
  void exec_scratch_create(Process& p, const workload::ScratchCreateOp& op);
  void exec_unlink(Process& p, const workload::UnlinkOp& op);
  void exec_send(Process& p, const workload::SendOp& op);
  bool exec_recv(Process& p, const workload::RecvOp& op);     // true = blocked
  bool exec_barrier(Process& p, const workload::BarrierOp&);  // true = blocked

  SimTime copy_cost(std::uint64_t bytes) const;

  // Daemons (daemons.cpp).
  void start_daemons();
  void daemon_update();
  void daemon_bdflush();
  void daemon_syslogd();
  void daemon_klogd();
  void daemon_utmpd();
  void daemon_pacct();
  void daemon_trace_drain();
  /// The drain body without the injected-stall gate (final collection must
  /// terminate even when the plan stalls the daemon forever).
  void force_trace_drain(std::size_t batch_limit = 0);

  void init();  // shared constructor body

  KernelConfig cfg_;
  int node_id_;
  Rng rng_;

  std::unique_ptr<sim::Engine> owned_engine_;  // empty in shared mode
  sim::Engine& engine_;
  bool shared_engine_ = false;
  std::unique_ptr<fault::FaultInjector> faults_;  // before drive_: outlives it
  std::unique_ptr<disk::Drive> drive_;
  trace::RingBuffer ring_;
  std::unique_ptr<driver::IdeDriver> driver_;
  std::unique_ptr<block::BufferCache> cache_;
  std::unique_ptr<fs::Ext2Lite> fs_;
  std::unique_ptr<mm::FramePool> frames_;
  std::unique_ptr<mm::SwapManager> swap_;
  std::unique_ptr<mm::Vm> vm_;

  // System files.
  fs::Ino syslog_ino_ = 0;
  fs::Ino klog_ino_ = 0;
  fs::Ino utmp_ino_ = 0;
  fs::Ino pacct_ino_ = 0;
  fs::Ino trace_ino_ = 0;

  // Process management.
  std::unordered_map<mm::Pid, std::unique_ptr<Process>> procs_;
  std::deque<mm::Pid> run_queue_;
  bool cpu_busy_ = false;
  mm::Pid next_pid_ = 1;

  // Captured trace (contents of the trace file).
  std::vector<trace::Record> capture_;

  telemetry::Sink* drain_sink_ = nullptr;

  MessageFabric* fabric_ = nullptr;
};

}  // namespace ess::kernel
