#include "pdes/machine.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "exec/thread_pool.hpp"  // default_workers()

namespace ess::pdes {
namespace {

std::size_t resolve_workers(std::size_t jobs) {
  const std::size_t w = jobs == 0 ? exec::default_workers() : jobs;
  return std::max<std::size_t>(w, 1);
}

std::size_t resolve_shards(const MachineConfig& cfg) {
  if (cfg.nodes < 1) throw std::invalid_argument("pdes::Machine: no nodes");
  const std::size_t want =
      cfg.shards != 0 ? cfg.shards : resolve_workers(cfg.jobs);
  return std::min<std::size_t>(std::max<std::size_t>(want, 1),
                               static_cast<std::size_t>(cfg.nodes));
}

}  // namespace

Machine::Machine(MachineConfig cfg)
    : workers_(resolve_workers(cfg.jobs)),
      // Computed once: fabric shard slots, engine partitions, and the
      // node->shard map below all derive from this one value and can
      // never diverge.
      nshards_(resolve_shards(cfg)),
      // The coordinating thread is always a runner, so jobs = N means
      // N - 1 parked gang threads; a gang wider than the shard count
      // could never all run at once.
      gang_(workers_ <= 1 ? 0 : std::min(workers_, nshards_) - 1),
      fabric_(cfg.ethernet, nshards_) {
  const auto n = static_cast<std::size_t>(cfg.nodes);
  engines_.reserve(nshards_);
  for (std::size_t s = 0; s < nshards_; ++s) {
    engines_.push_back(std::make_unique<sim::Engine>());
    engine_ptrs_.push_back(engines_.back().get());
  }
  next_cache_.assign(nshards_, sim::Engine::kNoEvent);
  // Contiguous blocks of nodes per shard, sized within one of each other.
  nodes_.reserve(n);
  shard_of_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t shard = i * nshards_ / n;
    kernel::KernelConfig ncfg = cfg.node;
    ncfg.seed = cfg.node.seed + i * 7919;  // per-node jitter
    if (cfg.tune_node) cfg.tune_node(static_cast<int>(i), ncfg);
    nodes_.push_back(std::make_unique<kernel::NodeKernel>(
        *engines_[shard], ncfg, static_cast<int>(i)));
    nodes_.back()->set_fabric(&fabric_);
    shard_of_.push_back(shard);
  }
  // Settle every node's setup I/O. No process exists yet, so no fabric
  // traffic: a plain bounded run per shard is already partition-invariant.
  run_window(now_ + sec(2), /*before=*/false);
  now_ += sec(2);
}

void Machine::stage(int node_idx, const workload::OpTrace& w) {
  auto& nd = node(node_idx);
  // warm_file pumps the node's engine until the warm read lands, so staging
  // advances simulated time. Serialize the stagings on one global timeline —
  // each starts where the previous ended, whatever shard it lives on —
  // exactly as they would interleave on a single shared engine. Without
  // this, a node's staging clock would depend on which nodes share its
  // shard, and every later event would inherit the skew.
  SimTime clock = now_;
  for (const auto& e : engines_) clock = std::max(clock, e->now());
  nd.engine().run_until(clock);
  if (w.image_bytes > 0) {
    nd.stage_input_file("/bin/" + w.app_name, w.image_bytes,
                        nd.config().layout.image_region_block);
    nd.warm_file("/bin/" + w.app_name, w.image_warm_fraction);
  }
  for (const auto& f : w.files) {
    if (!f.create && f.input_size > 0) {
      nd.stage_input_file(f.path, f.input_size, f.goal_block);
    }
  }
  nd.fsys().sync();
  now_ = std::max(now_, nd.engine().now());
  horizon_dirty_ = true;
}

mm::Pid Machine::spawn_rank(int node_idx, workload::OpTrace trace,
                            int rank) {
  auto& nd = node(node_idx);
  const mm::Pid pid = nd.spawn_deferred(std::move(trace));
  nd.set_rank(pid, rank);
  fabric_.register_task(rank, &nd, pid,
                        shard_of_[static_cast<std::size_t>(node_idx)]);
  if (fabric_.world_size() > 0) {
    held_.push_back({node_idx, pid});
    if (fabric_.task_count() >= fabric_.world_size()) {
      for (const auto& [ni, p] : held_) node(ni).start(p);
      held_.clear();
    }
  } else {
    nd.start(pid);
  }
  horizon_dirty_ = true;
  return pid;
}

void Machine::ioctl_all(driver::TraceLevel level) {
  for (auto& nd : nodes_) nd->ioctl_trace(level);
  horizon_dirty_ = true;
}

bool Machine::drain_unless_quiescent() {
  if (fabric_.quiescent()) return false;
  fabric_.drain(engine_ptrs_, gang_.workers() > 0 ? &gang_ : nullptr);
  horizon_dirty_ = true;  // injections move shard horizons
  return true;
}

void Machine::refresh_next() {
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    next_cache_[s] = engines_[s]->next_time();
  }
  horizon_dirty_ = false;
}

SimTime Machine::cached_horizon() const {
  SimTime t = sim::Engine::kNoEvent;
  for (const SimTime c : next_cache_) t = std::min(t, c);
  return t;
}

std::size_t Machine::run_window(SimTime t, bool before) {
  if (horizon_dirty_) refresh_next();
  active_.clear();
  for (std::size_t s = 0; s < engines_.size(); ++s) {
    // run_before fires events strictly before t, run_until those at t too.
    if (before ? next_cache_[s] < t : next_cache_[s] <= t) {
      active_.push_back(s);
    } else if (!before) {
      // Idle shard at a window the public API observes: nothing fires,
      // but the clock must land on t so every shard agrees on "now".
      engines_[s]->run_until(t);
    }
  }
  const std::size_t elided = engines_.size() - active_.size();
  if (active_.size() <= 1 || gang_.workers() == 0) {
    // Solo (or inline-mode) window: run on this thread, no wakeups.
    for (const std::size_t s : active_) {
      sim::Engine* e = engines_[s].get();
      before ? e->run_before(t) : e->run_until(t);
      next_cache_[s] = e->next_time();
    }
  } else {
    auto job = [&](std::size_t i) {
      sim::Engine* e = engines_[active_[i]].get();
      before ? e->run_before(t) : e->run_until(t);
      // Refreshing the cache here keeps the horizon scan off the
      // serialized section — the runner that moved a shard re-peeks it.
      next_cache_[active_[i]] = e->next_time();
    };
    gang_.run(active_.size(), job);
  }
  return elided;
}

void Machine::run_for(SimTime d) {
  const SimTime target = now_ + d;
  const SimTime lookahead = fabric_.lookahead();
  horizon_dirty_ = true;  // callers may have touched nodes directly
  for (;;) {
    const bool fused = !drain_unless_quiescent();
    if (horizon_dirty_) refresh_next();
    const SimTime tmin = cached_horizon();
    if (tmin >= target) break;
    const SimTime b = std::min(tmin + lookahead, target);
    const std::size_t elided = run_window(b, /*before=*/true);
    fabric_.note_window(fused, elided);
    now_ = b;
  }
  // Events at exactly `target` still fire inside this call; anything they
  // send stays in the outboxes for the next drain, which happens at
  // now == target — never behind the deliveries' times.
  run_window(target, /*before=*/false);
  now_ = target;
}

bool Machine::all_done() const {
  for (const auto& nd : nodes_) {
    if (!nd->all_done()) return false;
  }
  return true;
}

bool Machine::run_until_all_done(SimTime max_time) {
  const SimTime lookahead = fabric_.lookahead();
  horizon_dirty_ = true;
  while (!all_done()) {
    const bool fused = !drain_unless_quiescent();
    if (horizon_dirty_) refresh_next();
    const SimTime tmin = cached_horizon();
    if (tmin == sim::Engine::kNoEvent) {
      throw std::logic_error(
          "pdes::Machine: deadlock — processes pending but no events or "
          "in-flight messages anywhere");
    }
    if (tmin >= max_time) {
      run_window(max_time, /*before=*/false);
      now_ = max_time;
      drain_unless_quiescent();
      return all_done();
    }
    const SimTime b = std::min(tmin + lookahead, max_time);
    const std::size_t elided = run_window(b, /*before=*/true);
    fabric_.note_window(fused, elided);
    now_ = b;
  }
  return true;
}

std::vector<trace::TraceSet> Machine::collect(const std::string& experiment,
                                              SimTime t0) {
  std::vector<trace::TraceSet> out;
  out.reserve(nodes_.size());
  for (auto& nd : nodes_) {
    auto ts = nd->collect_trace(experiment);
    ts.rebase(t0);
    out.push_back(std::move(ts));
  }
  return out;
}

}  // namespace ess::pdes
