#include "analysis/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "exec/runner.hpp"
#include "exec/thread_pool.hpp"
#include "telemetry/esst_view.hpp"

namespace ess::analysis {
namespace {

std::unique_ptr<std::ifstream> open_binary(const std::string& path) {
  auto f = std::make_unique<std::ifstream>(path, std::ios::binary);
  if (!*f) throw std::runtime_error("cannot open " + path);
  return f;
}

/// Map the capture, translating the mapper's open/stat failures to the
/// same "cannot open <path>" every stream-based path in this file throws.
telemetry::EsstView open_view(const std::string& path) {
  try {
    return telemetry::EsstView(path);
  } catch (const std::runtime_error& e) {
    if (std::string_view(e.what()).rfind("mmap_file:", 0) == 0) {
      throw std::runtime_error("cannot open " + path);
    }
    throw;
  }
}

/// A few shards per worker: enough slack that one slow shard cannot
/// straggle the whole scan, few enough that per-shard overhead stays
/// noise.
constexpr std::size_t kShardsPerWorker = 4;

/// Floor on a byte-weighted shard's size. A shard must carry enough
/// decode+consume work to amortize folding its StreamSummary into the
/// running result — the fold's top-K union costs up to ~entries-tracked
/// hash probes plus a re-rank, a near-constant toll per shard — so small
/// captures run as a single serial pass instead of shattering into shards
/// whose merges eat the fan-out's winnings. ESS_SHARD_MIN_BYTES overrides
/// (tests force tiny shards through the parallel path with it).
constexpr std::uint64_t kDefaultMinShardBytes = 4 * 1024 * 1024;

std::uint64_t default_min_shard_bytes() {
  if (const char* v = std::getenv("ESS_SHARD_MIN_BYTES")) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(v, &end, 10);
    if (end != v && *end == '\0' && n > 0) return n;
  }
  return kDefaultMinShardBytes;
}

/// Cut [0, chunks) at the given cumulative-weight marks: shard s ends
/// where the running total first reaches (s+1)/shards of the grand total.
std::vector<std::pair<std::size_t, std::size_t>> cut_by_weight(
    const std::vector<std::uint64_t>& weights, std::uint64_t total,
    std::size_t shards) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(shards);
  std::size_t lo = 0;
  std::size_t i = 0;
  std::uint64_t acc = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    // Integer mark: the last shard's mark is exactly `total`, so the final
    // range always ends at weights.size() — exact coverage by construction.
    const std::uint64_t mark = total / shards * (s + 1) +
                               (total % shards) * (s + 1) / shards;
    while (i < weights.size() && (acc < mark || s + 1 == shards)) {
      acc += weights[i++];
    }
    if (i > lo) out.emplace_back(lo, i);
    lo = i;
  }
  return out;
}

}  // namespace

std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  return std::max<std::size_t>(exec::default_workers(), 1);
}

std::vector<std::pair<std::size_t, std::size_t>> shard_ranges(
    std::size_t chunks, std::size_t workers) {
  const std::size_t shards = std::max<std::size_t>(
      1, std::min(chunks, std::max<std::size_t>(workers, 1) *
                              kShardsPerWorker));
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(shards);
  std::size_t lo = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t hi = chunks * (s + 1) / shards;
    if (hi > lo) out.emplace_back(lo, hi);
    lo = hi;
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>> shard_ranges_weighted(
    const std::vector<std::uint64_t>& chunk_bytes, std::size_t workers,
    std::uint64_t min_shard_bytes) {
  std::uint64_t total = 0;
  for (const auto b : chunk_bytes) total += b;
  if (chunk_bytes.empty()) return {};
  if (total == 0) return {{0, chunk_bytes.size()}};
  if (min_shard_bytes == 0) min_shard_bytes = default_min_shard_bytes();
  // Cap shards three ways: one per chunk at most, a few per worker, and
  // nothing smaller than min_shard_bytes of decode work.
  const std::size_t shards = std::max<std::size_t>(
      1, std::min({chunk_bytes.size(),
                   std::max<std::size_t>(workers, 1) * kShardsPerWorker,
                   static_cast<std::size_t>(total / min_shard_bytes)}));
  return cut_by_weight(chunk_bytes, total, shards);
}

namespace {

/// Per-chunk byte weights for byte-balanced sharding.
std::vector<std::uint64_t> chunk_weights(const telemetry::EsstView& view) {
  std::vector<std::uint64_t> bytes(view.chunks().size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = view.chunk_bytes(i);
  }
  return bytes;
}

}  // namespace

ScanResult scan_esst(const std::string& path, std::size_t jobs,
                     const telemetry::StreamSummary::Options& opts) {
  const std::size_t workers = resolve_jobs(jobs);
  ScanResult out;
  out.summary = telemetry::StreamSummary(opts);

  const telemetry::EsstView view = open_view(path);
  if (!view.index_ok()) {
    // Salvage fallback: no trusted index, so the chunk list itself comes
    // from EsstReader's forward scan — inherently serial and streaming.
    const auto file = open_binary(path);
    telemetry::EsstReader reader(*file);
    out.experiment = reader.meta().experiment;
    out.salvaged = true;
    out.capture_dropped = reader.capture_dropped();
    std::vector<trace::Record> recs;
    for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
      try {
        reader.read_chunk_into(i, recs);
        out.summary.on_records(recs.data(), recs.size());
      } catch (const std::runtime_error&) {
        out.lost_records += reader.chunks()[i].records;
      }
    }
    out.summary.on_drops(out.capture_dropped + out.lost_records);
    out.summary.on_finish(reader.duration());
    return out;
  }

  out.experiment = view.meta().experiment;
  out.capture_dropped = view.capture_dropped();
  const std::size_t nchunks = view.chunks().size();
  const auto ranges =
      workers <= 1 ? shard_ranges(nchunks, 1)
                   : shard_ranges_weighted(chunk_weights(view), workers);

  if (workers <= 1 || ranges.size() <= 1) {
    // The serial reference loop: same view, same decode, one thread.
    view.advise_sequential();
    std::vector<trace::Record> recs;
    recs.reserve(view.meta().records_per_chunk);
    for (std::size_t i = 0; i < nchunks; ++i) {
      try {
        view.decode_chunk(i, recs);
        out.summary.on_records(recs.data(), recs.size());
      } catch (const std::runtime_error&) {
        out.lost_records += view.chunks()[i].records;
      }
    }
  } else {
    struct ShardOut {
      telemetry::StreamSummary summary;
      std::uint64_t lost = 0;
    };
    std::vector<std::function<ShardOut()>> shard_jobs;
    shard_jobs.reserve(ranges.size());
    for (const auto& [lo, hi] : ranges) {
      shard_jobs.push_back([&, lo = lo, hi = hi] {
        // Every shard decodes straight out of the one shared mapping; the
        // only per-shard state is its summary and its record scratch,
        // which is reused across all the shard's chunks.
        ShardOut shard{telemetry::StreamSummary(opts)};
        view.advise_chunks(lo, hi);
        std::vector<trace::Record> recs;
        recs.reserve(view.meta().records_per_chunk);
        for (std::size_t i = lo; i < hi; ++i) {
          try {
            view.decode_chunk(i, recs);
            shard.summary.on_records(recs.data(), recs.size());
          } catch (const std::runtime_error&) {
            shard.lost += view.chunks()[i].records;
          }
        }
        return shard;
      });
    }
    // Submission order == chunk order, so each merge folds in the later
    // time segment — the consumers' merge precondition. This branch only
    // runs with workers > 1, so the pool is always real.
    for (auto& shard : exec::run_ordered(std::move(shard_jobs), workers)) {
      out.summary.merge(shard.summary);
      out.lost_records += shard.lost;
    }
  }
  out.summary.on_drops(out.capture_dropped + out.lost_records);
  out.summary.on_finish(view.duration());
  return out;
}

telemetry::SalvageReport verify_esst(const std::string& path,
                                     std::size_t jobs) {
  const std::size_t workers = resolve_jobs(jobs);
  const telemetry::EsstView view = open_view(path);
  if (!view.index_ok()) {
    // Salvaged files keep the streaming pass: the damage the constructor's
    // scan already discarded lives in that reader's state.
    const auto file = open_binary(path);
    telemetry::EsstReader reader(*file);
    return reader.verify();
  }

  struct ShardReport {
    std::size_t chunks_kept = 0;
    std::size_t chunks_lost = 0;
    std::uint64_t records_kept = 0;
    std::uint64_t records_lost = 0;
    std::optional<std::uint64_t> first_bad_offset;
  };
  const std::size_t nchunks = view.chunks().size();
  const auto ranges =
      workers <= 1 ? shard_ranges(nchunks, 1)
                   : shard_ranges_weighted(chunk_weights(view), workers);
  std::vector<std::function<ShardReport()>> shard_jobs;
  shard_jobs.reserve(ranges.size());
  for (const auto& [lo, hi] : ranges) {
    shard_jobs.push_back([&, lo = lo, hi = hi] {
      ShardReport shard;
      std::vector<trace::Record> recs;
      recs.reserve(view.meta().records_per_chunk);
      for (std::size_t i = lo; i < hi; ++i) {
        try {
          view.decode_chunk(i, recs);
          ++shard.chunks_kept;
          shard.records_kept += recs.size();
        } catch (const std::runtime_error&) {
          ++shard.chunks_lost;
          shard.records_lost += view.chunks()[i].records;
          if (!shard.first_bad_offset) {
            shard.first_bad_offset = view.chunks()[i].offset;
          }
        }
      }
      return shard;
    });
  }

  telemetry::SalvageReport rep;
  rep.index_ok = true;
  rep.capture_dropped = view.capture_dropped();
  // workers == 1 runs the same shard jobs inline (ThreadPool(0)): the
  // serial reference path through identical code.
  for (const auto& shard : exec::run_ordered(
           std::move(shard_jobs), workers <= 1 ? 0 : workers)) {
    rep.chunks_kept += shard.chunks_kept;
    rep.chunks_lost += shard.chunks_lost;
    rep.records_kept += shard.records_kept;
    rep.records_lost += shard.records_lost;
    // Shards come back in chunk order, so the first shard that saw damage
    // holds the file's first damaged offset.
    if (!rep.first_bad_offset) rep.first_bad_offset = shard.first_bad_offset;
  }
  // Same trailer cross-check as the serial pass: never understate loss.
  if (view.trailer_records() > rep.records_kept + rep.records_lost) {
    rep.records_lost = view.trailer_records() - rep.records_kept;
  }
  return rep;
}

namespace {

/// Merge order: (timestamp, node id, input position). Node id breaks
/// timestamp ties, input position makes even equal (timestamp, node)
/// pairs — two inputs from the same node — stable. Distinct inputs can
/// therefore never compare equal, which the loser tree below relies on.
struct MergeKey {
  SimTime ts = 0;
  std::int32_t node = 0;
  std::size_t input = 0;
};

inline bool key_less(const MergeKey& a, const MergeKey& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.node != b.node) return a.node < b.node;
  return a.input < b.input;
}

/// The "no cursor here" sentinel: sorts after every real key (a real
/// record at the max timestamp still wins on the input tie-break, since
/// real inputs are < SIZE_MAX).
inline MergeKey exhausted_key() {
  return {std::numeric_limits<SimTime>::max(),
          std::numeric_limits<std::int32_t>::max(),
          std::numeric_limits<std::size_t>::max()};
}

/// One input of the k-way merge: its decoded-chunk double buffer and at
/// most one chunk-decode in flight on the pool. Indexed inputs decode
/// zero-copy from a shared-nothing EsstView; inputs whose index did not
/// survive fall back to their own streaming reader. The two decode
/// buffers swap roles on every refill, so a long merge settles into
/// steady-state with no per-chunk allocation at all.
struct MergeCursor {
  std::unique_ptr<telemetry::EsstView> view;  // indexed fast path
  std::unique_ptr<std::ifstream> file;        // salvage fallback...
  std::unique_ptr<telemetry::EsstReader> reader;
  std::int32_t stamp_node = 0;  // v1 inputs: header node id per record
  bool stamp = false;
  std::size_t next_chunk = 0;  // next chunk index to schedule
  std::vector<trace::Record> recs;  // front buffer, being drained
  std::vector<trace::Record> back;  // back buffer, decode target
  bool recs_sorted = false;  // front buffer non-decreasing by (ts, node)?
  bool back_sorted = false;  // computed by the decode worker
  std::size_t pos = 0;
  std::future<void> pending;
  std::uint64_t lost_records = 0;  // damaged chunks skipped here

  const trace::Record& front() const { return recs[pos]; }

  const std::vector<telemetry::ChunkInfo>& chunks() const {
    return view ? view->chunks() : reader->chunks();
  }

  void open(const std::string& path) {
    view = std::make_unique<telemetry::EsstView>(open_view(path));
    if (!view->index_ok()) {
      view.reset();
      file = open_binary(path);
      reader = std::make_unique<telemetry::EsstReader>(*file);
    }
  }

  const telemetry::EsstMeta& meta() const {
    return view ? view->meta() : reader->meta();
  }
  SimTime duration() const {
    return view ? view->duration() : reader->duration();
  }
  std::uint64_t capture_dropped() const {
    return view ? view->capture_dropped() : reader->capture_dropped();
  }

  void schedule(exec::ThreadPool& pool) {
    if (next_chunk >= chunks().size()) return;
    const std::size_t idx = next_chunk++;
    auto task = std::make_shared<std::packaged_task<void()>>([this, idx] {
      back.clear();
      back_sorted = false;
      try {
        if (view) {
          view->decode_chunk(idx, back);
        } else {
          reader->read_chunk_into(idx, back);
        }
        if (stamp) {
          for (auto& r : back) r.node = stamp_node;
        }
        // Sortedness by (ts, node) unlocks galloping run emission; checked
        // here, on the worker, where it overlaps other cursors' decodes.
        // Capture timestamps are non-decreasing in practice, so this is
        // one predictable pass — but nothing downstream assumes it holds.
        back_sorted = std::is_sorted(
            back.begin(), back.end(),
            [](const trace::Record& a, const trace::Record& b) {
              return a.timestamp != b.timestamp ? a.timestamp < b.timestamp
                                                : a.node < b.node;
            });
      } catch (const std::runtime_error&) {
        back.clear();
        lost_records += chunks()[idx].records;
      }
    });
    pending = task->get_future();
    pool.submit([task] { (*task)(); });
  }

  /// Make front() valid or return false at end of input. Collects the
  /// in-flight decode into the back buffer, swaps it to the front, and
  /// immediately schedules the next one — so with workers the next chunk
  /// decodes while this one drains, and both buffers keep their capacity
  /// for the whole merge.
  bool refill(exec::ThreadPool& pool) {
    while (pos >= recs.size()) {
      if (!pending.valid()) return false;
      pending.get();
      std::swap(recs, back);
      recs_sorted = back_sorted;
      pos = 0;
      schedule(pool);
    }
    return true;
  }

  MergeKey front_key(std::size_t input) const {
    return {front().timestamp, front().node, input};
  }

  /// End of the emittable run: the first index in [pos, recs.size())
  /// whose key does not sort before `limit` (every other cursor's best
  /// front), or recs.size(). The caller guarantees the record at `pos`
  /// qualifies (it is the tournament winner). When the decode worker
  /// proved the buffer sorted, gallop — exponential probe then bisect —
  /// so a cursor that owns a long quiet stretch of the timeline emits it
  /// in O(log run) comparisons; otherwise scan linearly, which is still
  /// exactly the record-at-a-time heap order.
  std::size_t run_end(const MergeKey& limit, std::size_t input) const {
    const auto before = [&](const trace::Record& r) {
      return key_less({r.timestamp, r.node, input}, limit);
    };
    const std::size_t n = recs.size();
    if (!recs_sorted) {
      std::size_t i = pos + 1;
      while (i < n && before(recs[i])) ++i;
      return i;
    }
    std::size_t lo = pos;  // before() known true here
    std::size_t hi = pos + 1;
    std::size_t step = 1;
    while (hi < n && before(recs[hi])) {
      lo = hi;
      hi += step;
      step *= 2;
    }
    hi = std::min(hi, n);
    while (lo + 1 < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (before(recs[mid])) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return hi;
  }
};

/// Tournament loser tree over the k cursor fronts. Advancing the winner
/// replays one leaf-to-root path (log k comparisons, no sift-down double
/// compares like a binary heap), and the losers stored on that path give
/// the runner-up key for free — which is exactly the galloping limit the
/// run emission needs. Exhausted cursors hold the +inf sentinel; the
/// caller tracks how many are live.
class LoserTree {
 public:
  explicit LoserTree(std::size_t k)
      : k_(k), tree_(std::max<std::size_t>(k, 1), 0), keys_(k + 1) {
    keys_[k] = exhausted_key();
  }

  void set_key(std::size_t leaf, const MergeKey& key) { keys_[leaf] = key; }

  /// Full rebuild from the current keys: one post-order tournament.
  void build() { tree_[0] = k_ >= 2 ? play(1) : 0; }

  std::size_t winner() const { return tree_[0]; }

  /// Re-run the winner's leaf-to-root path after its key changed.
  void replay(std::size_t leaf) {
    std::size_t w = leaf;
    for (std::size_t node = (leaf + k_) / 2; node >= 1; node /= 2) {
      if (key_less(keys_[tree_[node]], keys_[w])) std::swap(w, tree_[node]);
    }
    tree_[0] = w;
  }

  /// The best front among the *other* cursors. The true runner-up must
  /// have lost directly to the champion, so it sits on the champion's
  /// root path — the minimum over those stored losers, not simply the
  /// root's loser (which may have lost higher up to a key that was
  /// already beaten below).
  MergeKey runner_up() const {
    MergeKey best = keys_[k_];  // sentinel: +inf
    for (std::size_t node = (tree_[0] + k_) / 2; node >= 1; node /= 2) {
      if (key_less(keys_[tree_[node]], best)) best = keys_[tree_[node]];
    }
    return best;
  }

 private:
  /// Play out the subtree under internal node `node`: stores losers on the
  /// way up, returns the subtree's winner. External node k+i is leaf i.
  std::size_t play(std::size_t node) {
    if (node >= k_) return node - k_;
    std::size_t a = play(2 * node);
    std::size_t b = play(2 * node + 1);
    if (key_less(keys_[b], keys_[a])) std::swap(a, b);
    tree_[node] = b;  // loser rests here
    return a;         // winner plays on
  }

  std::size_t k_;
  std::vector<std::size_t> tree_;  // [0] champion, [1..k) losers
  std::vector<MergeKey> keys_;     // per leaf; [k] is the +inf sentinel
};

}  // namespace

MergeResult merge_esst(const std::vector<std::string>& inputs,
                       const std::string& out_path, std::size_t jobs) {
  if (inputs.empty()) {
    throw std::runtime_error("merge needs at least one input");
  }
  const std::size_t workers = resolve_jobs(jobs);
  // Workers only prefetch chunk decodes; the merge order below never
  // depends on them, so any --jobs value writes the same bytes.
  exec::ThreadPool pool(workers <= 1 ? 0 : workers);

  MergeResult result;
  result.inputs = inputs.size();
  std::uint64_t capture_dropped = 0;
  std::vector<MergeCursor> cursors(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto& c = cursors[i];
    c.open(inputs[i]);
    c.stamp = !c.meta().multi_node;
    c.stamp_node = c.meta().node_id;
    capture_dropped += c.capture_dropped();
    result.duration = std::max(result.duration, c.duration());
    c.schedule(pool);
  }

  // The merged file: format v2 (every record carries its node), header
  // metadata from the first input, node id -1 = "the cluster" (the same
  // convention a merged multi-node TraceSet uses).
  telemetry::EsstMeta meta = cursors.front().meta();
  meta.node_id = -1;
  meta.multi_node = true;
  std::ofstream out_file(out_path, std::ios::binary | std::ios::trunc);
  if (!out_file) throw std::runtime_error("cannot open " + out_path);
  telemetry::EsstWriter writer(out_file, meta, out_path);
  // With workers, the output side pipelines too: chunk payloads encode +
  // CRC on the pool while this thread runs the tournament. Chunks are
  // still written in submission order, so bytes never depend on --jobs.
  if (workers > 1) writer.set_encode_pool(&pool);

  // k-way tournament (loser tree) instead of a binary heap: advancing the
  // winner costs one leaf-to-root replay, and the runner-up key it yields
  // bounds how far the winner can run ahead — every record of the winner's
  // buffer that sorts before *every* other cursor's front is emitted as
  // one batch (galloped when the chunk is sorted). Merging k nodes whose
  // traffic interleaves coarsely — the common shape: each node owns long
  // stretches of the timeline — this turns per-record heap churn into a
  // handful of comparisons per run, while remaining record-exact for
  // arbitrary (even unsorted) inputs.
  LoserTree tree(cursors.size());
  std::size_t live = 0;
  for (std::size_t i = 0; i < cursors.size(); ++i) {
    if (cursors[i].refill(pool)) {
      tree.set_key(i, cursors[i].front_key(i));
      ++live;
    } else {
      tree.set_key(i, exhausted_key());
    }
  }
  tree.build();
  while (live > 0) {
    const std::size_t i = tree.winner();
    auto& c = cursors[i];
    const std::size_t end = c.run_end(tree.runner_up(), i);
    writer.append(c.recs.data() + c.pos, end - c.pos);
    result.records_written += end - c.pos;
    c.pos = end;
    if (c.pos < c.recs.size() || c.refill(pool)) {
      tree.set_key(i, c.front_key(i));
    } else {
      tree.set_key(i, exhausted_key());
      --live;
    }
    tree.replay(i);
  }

  for (const auto& c : cursors) result.dropped_records += c.lost_records;
  result.dropped_records += capture_dropped;
  writer.set_dropped_records(result.dropped_records);
  writer.finish(result.duration);
  if (!out_file) throw std::runtime_error("write failed: " + out_path);
  return result;
}

}  // namespace ess::analysis
