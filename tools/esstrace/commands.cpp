#include "commands.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include <algorithm>
#include <map>

#include "analysis/parallel.hpp"
#include "core/presets.hpp"
#include "exec/experiments.hpp"
#include "exec/thread_pool.hpp"
#include "pdes/combined.hpp"
#include "trace/io.hpp"

namespace ess::esstrace {
namespace {

std::string lower_ext(const std::string& path) {
  const auto dot = path.rfind('.');
  if (dot == std::string::npos) return {};
  std::string ext = path.substr(dot + 1);
  for (auto& c : ext) c = static_cast<char>(std::tolower(c));
  return ext;
}

std::uint64_t file_size(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  const auto pos = f.tellg();
  return pos < 0 ? 0 : static_cast<std::uint64_t>(pos);
}

template <typename... Args>
void put(std::ostream& os, const char* fmt, Args... args) {
  char line[192];
  std::snprintf(line, sizeof line, fmt, args...);
  os << line;
}

void render_result(const telemetry::StreamSummary::Result& r,
                   std::ostream& out) {
  put(out, "experiment      %s\n",
      r.experiment.empty() ? "(unnamed)" : r.experiment.c_str());
  put(out, "records         %llu\n",
      static_cast<unsigned long long>(r.records));
  put(out, "duration        %.1f s\n", r.duration_sec);
  put(out, "rate            %.3f req/s\n", r.requests_per_sec);
  put(out, "reads / writes  %llu / %llu  (%.1f%% / %.1f%%)\n",
      static_cast<unsigned long long>(r.reads),
      static_cast<unsigned long long>(r.writes), r.read_pct, r.write_pct);
  put(out, "max request     %u bytes\n", r.max_request_bytes);
  if (r.lossy) {
    put(out, "capture         LOSSY — %llu record(s) known dropped upstream\n",
        static_cast<unsigned long long>(r.dropped_records));
  }
  out << "request sizes:\n";
  for (const auto& [size, pct] : r.size_pct) {
    put(out, "  %8lld B  %6.2f%%\n", static_cast<long long>(size), pct);
  }
  out << "sector bands (per 100K sectors):\n";
  for (const auto& [band, pct] : r.band_pct) {
    put(out, "  %8llu+  %6.2f%%\n", static_cast<unsigned long long>(band),
        pct);
  }
  put(out, "hot sectors (top %zu%s):\n", r.hot.size(),
      r.hot_exact ? "" : ", approximate");
  for (const auto& h : r.hot) {
    put(out, "  sector %8llu  x%-8llu %.4f/s\n",
        static_cast<unsigned long long>(h.sector),
        static_cast<unsigned long long>(h.count), h.per_sec);
  }
  // Only a multi-node (merged) stream fills these rows, so single-node
  // stats output — including the golden captures — is unchanged.
  if (!r.per_node.empty()) {
    put(out, "per node (%zu nodes):\n", r.per_node.size());
    for (const auto& n : r.per_node) {
      put(out, "  node %3d  %9llu records  %5.1f%% reads  %.3f req/s\n",
          n.node, static_cast<unsigned long long>(n.records), n.read_pct,
          n.requests_per_sec);
    }
  }
}

}  // namespace

bool parse_jobs(const std::string& text, std::size_t& jobs) {
  // Digits only: no sign, no whitespace, no trailing junk — "-1", "4x",
  // " 8" and "" all fail the same way instead of whatever stoul salvages.
  if (text.empty() || text.size() > 19) return false;
  for (const char c : text) {
    if (c < '0' || c > '9') return false;
  }
  const unsigned long long v = std::stoull(text);
  if (v > kMaxJobs) return false;  // absurd counts are typos, not requests
  jobs = static_cast<std::size_t>(v);
  return true;
}

TraceFormat sniff_format(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("esstrace: cannot open " + path);
  char magic[8] = {};
  f.read(magic, sizeof magic);
  if (f.gcount() == 8) {
    if (std::memcmp(magic, "ESST0001", 8) == 0) return TraceFormat::kEsst;
    if (std::memcmp(magic, "ESSTRC01", 8) == 0) {
      return TraceFormat::kLegacyBinary;
    }
  }
  return TraceFormat::kCsv;
}

TraceFormat format_for_extension(const std::string& path) {
  const auto ext = lower_ext(path);
  if (ext == "esst") return TraceFormat::kEsst;
  if (ext == "bin") return TraceFormat::kLegacyBinary;
  return TraceFormat::kCsv;
}

trace::TraceSet load_any(const std::string& path) {
  switch (sniff_format(path)) {
    case TraceFormat::kEsst:
      return telemetry::read_esst_file(path);
    case TraceFormat::kLegacyBinary:
      return trace::read_binary_file(path);
    case TraceFormat::kCsv:
      return trace::read_csv_file(path);
  }
  throw std::logic_error("unreachable");
}

void save_as(const trace::TraceSet& ts, const std::string& path) {
  switch (format_for_extension(path)) {
    case TraceFormat::kEsst:
      telemetry::write_esst_file(ts, path);
      return;
    case TraceFormat::kLegacyBinary:
      trace::write_binary_file(ts, path);
      return;
    case TraceFormat::kCsv:
      trace::write_csv_file(ts, path);
      return;
  }
}

int cmd_info(const std::string& path, std::ostream& out, std::ostream& err) {
  if (sniff_format(path) != TraceFormat::kEsst) {
    err << "esstrace info: " << path << " is not an ESST file\n";
    return 2;
  }
  std::ifstream f(path, std::ios::binary);
  telemetry::EsstReader reader(f);
  const auto& m = reader.meta();
  const std::uint64_t records = reader.total_records();
  const std::uint64_t bytes = file_size(path);
  put(out, "file            %s  (%llu bytes)\n", path.c_str(),
      static_cast<unsigned long long>(bytes));
  put(out, "experiment      %s   node %d\n",
      m.experiment.empty() ? "(unnamed)" : m.experiment.c_str(), m.node_id);
  put(out, "geometry        %llu sectors x %u B\n",
      static_cast<unsigned long long>(m.total_sectors), m.sector_bytes);
  put(out, "sim params      seed=0x%llx  ram=%llu MB\n",
      static_cast<unsigned long long>(m.seed),
      static_cast<unsigned long long>(m.ram_bytes / (1024 * 1024)));
  put(out, "duration        %.1f s\n", to_seconds(reader.duration()));
  put(out, "records         %llu  (%.1f bytes/record)\n",
      static_cast<unsigned long long>(records),
      records > 0 ? static_cast<double>(bytes) / static_cast<double>(records)
                  : 0.0);
  put(out, "chunks          %zu  (%u records/chunk max)\n",
      reader.chunks().size(), m.records_per_chunk);
  if (reader.salvaged()) {
    put(out, "index           MISSING/BAD — rebuilt by scan, %zu corrupt "
             "chunk(s) dropped\n",
        reader.corrupt_chunks());
  } else {
    out << "index           ok\n";
  }
  if (reader.capture_dropped() > 0) {
    put(out, "capture drops   %llu record(s) overflowed the kernel ring\n",
        static_cast<unsigned long long>(reader.capture_dropped()));
  }
  if (m.multi_node) {
    // A v2 (merged) file: every record carries its origin node, so one
    // decode pass gives the per-node breakdown and the id range. The byte
    // totals (sum of request sizes) sit next to the record counts so I/O
    // skew across nodes is visible at a glance — a node can be quiet in
    // records yet dominate in bytes.
    struct NodeTotals {
      std::uint64_t records = 0;
      std::uint64_t bytes = 0;
    };
    std::map<std::int32_t, NodeTotals> per_node;
    std::vector<trace::Record> recs;
    for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
      try {
        reader.read_chunk_into(i, recs);
      } catch (const std::runtime_error&) {
        continue;  // damaged chunks are already reported above
      }
      for (const auto& r : recs) {
        auto& t = per_node[r.node];
        ++t.records;
        t.bytes += r.size_bytes;
      }
    }
    if (per_node.empty()) {
      out << "nodes           0\n";
    } else {
      put(out, "nodes           %zu  (ids %d..%d)\n", per_node.size(),
          per_node.begin()->first, per_node.rbegin()->first);
      for (const auto& [node, t] : per_node) {
        put(out, "  node %6d  %12llu records  %14llu bytes  (%.1f MB)\n",
            node, static_cast<unsigned long long>(t.records),
            static_cast<unsigned long long>(t.bytes),
            static_cast<double>(t.bytes) / (1024.0 * 1024.0));
      }
    }
  }
  out << "  chunk     offset   records        t_first..t_last      "
         "sectors\n";
  for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
    const auto& c = reader.chunks()[i];
    put(out, "  %5zu %10llu %9u %12.1fs..%.1fs  %u..%u\n", i,
        static_cast<unsigned long long>(c.offset), c.records,
        to_seconds(c.ts_first), to_seconds(c.ts_last), c.sector_min,
        c.sector_max);
  }
  return 0;
}

int cmd_cat(const std::string& path, std::ostream& out, std::ostream& err) {
  try {
    if (sniff_format(path) == TraceFormat::kEsst) {
      // Stream chunk by chunk through one reused decode buffer instead of
      // materializing the whole capture; damaged chunks cost only their own
      // records, matching read_all()'s tolerance.
      std::ifstream file(path, std::ios::binary);
      telemetry::EsstReader reader(file);
      trace::write_csv_header(out);
      std::vector<trace::Record> recs;
      for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
        try {
          reader.read_chunk_into(i, recs);
        } catch (const std::runtime_error&) {
          continue;
        }
        trace::write_csv_records(recs.data(), recs.size(), out);
      }
    } else {
      trace::write_csv(load_any(path), out);
    }
  } catch (const std::runtime_error& e) {
    err << "esstrace cat: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out_path,
                std::ostream& out, std::ostream& err) {
  try {
    const auto ts = load_any(in);
    save_as(ts, out_path);
    put(out, "%s -> %s: %zu records, %llu -> %llu bytes\n", in.c_str(),
        out_path.c_str(), ts.size(),
        static_cast<unsigned long long>(file_size(in)),
        static_cast<unsigned long long>(file_size(out_path)));
  } catch (const std::runtime_error& e) {
    err << "esstrace convert: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

int cmd_filter(const std::string& in, const std::string& out_path,
               const telemetry::EsstReader::Filter& f, std::ostream& out,
               std::ostream& err) {
  try {
    trace::TraceSet kept;
    std::size_t pruned = 0;
    std::size_t total_chunks = 0;
    if (sniff_format(in) == TraceFormat::kEsst) {
      std::ifstream file(in, std::ios::binary);
      telemetry::EsstReader reader(file);
      total_chunks = reader.chunks().size();
      kept = reader.read_filtered(f, &pruned);
    } else {
      const auto ts = load_any(in);
      kept = trace::TraceSet(ts.experiment(), ts.node_id());
      for (const auto& r : ts.records()) {
        if (f.record_matches(r)) kept.add(r);
      }
      kept.set_duration(ts.duration());
    }
    save_as(kept, out_path);
    put(out, "%s -> %s: kept %zu records", in.c_str(), out_path.c_str(),
        kept.size());
    if (total_chunks > 0) {
      put(out, "; index pruned %zu/%zu chunks undecoded", pruned,
          total_chunks);
    }
    out << "\n";
  } catch (const std::runtime_error& e) {
    err << "esstrace filter: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

telemetry::StreamSummary::Result summarize_file(const std::string& path,
                                                std::size_t jobs) {
  if (sniff_format(path) == TraceFormat::kEsst) {
    // The chunk-parallel scan engine: still true streaming (one resident
    // chunk per worker), still one labelled result for a damaged file —
    // chunks that fail to decode cost their own records, salvaged files
    // come back marked lossy — and byte-identical output at any --jobs.
    auto scan = analysis::scan_esst(path, jobs);
    auto res = scan.summary.result(
        scan.experiment.empty() ? path : scan.experiment);
    res.lossy = res.lossy || scan.salvaged;
    return res;
  }
  telemetry::StreamSummary summary;
  const auto ts = load_any(path);
  for (const auto& r : ts.records()) summary.on_record(r);
  summary.on_finish(ts.duration());
  return summary.result(ts.experiment().empty() ? path : ts.experiment());
}

int cmd_stats(const std::string& path, std::ostream& out, std::ostream& err,
              std::size_t jobs) {
  try {
    render_result(summarize_file(path, jobs), out);
  } catch (const std::runtime_error& e) {
    err << "esstrace stats: " << e.what() << "\n";
    return 2;
  }
  return 0;
}

int cmd_diff(const std::string& a, const std::string& b,
             const telemetry::DiffTolerance& tol, std::ostream& out,
             std::ostream& err, std::size_t jobs) {
  try {
    const auto ra = summarize_file(a, jobs);
    const auto rb = summarize_file(b, jobs);
    const auto d = telemetry::diff_summaries(ra, rb, tol);
    out << render_diff(d);
    return d.ok ? 0 : 1;
  } catch (const std::runtime_error& e) {
    err << "esstrace diff: " << e.what() << "\n";
    return 2;
  }
}

int cmd_verify(const std::string& path, std::ostream& out, std::ostream& err,
               std::size_t jobs) {
  try {
    if (sniff_format(path) != TraceFormat::kEsst) {
      err << "esstrace verify: " << path << " is not an ESST file\n";
      return 2;
    }
    const auto rep = analysis::verify_esst(path, jobs);
    put(out, "file            %s\n", path.c_str());
    put(out, "index           %s\n",
        rep.index_ok ? "ok" : "MISSING/BAD — chunk list rebuilt by scan");
    put(out, "chunks          %zu kept, %zu lost\n", rep.chunks_kept,
        rep.chunks_lost);
    put(out, "records         %llu kept, %s%llu lost to damage\n",
        static_cast<unsigned long long>(rep.records_kept),
        rep.records_lost_exact ? "" : ">=",
        static_cast<unsigned long long>(rep.records_lost));
    put(out, "capture drops   %llu record(s) lost upstream of the file\n",
        static_cast<unsigned long long>(rep.capture_dropped));
    if (rep.first_bad_offset) {
      put(out, "first damage    byte offset %llu\n",
          static_cast<unsigned long long>(*rep.first_bad_offset));
    }
    if (rep.clean()) {
      out << "verdict         CLEAN\n";
      return 0;
    }
    out << "verdict         "
        << (rep.index_ok ? "LOSSY" : "SALVAGED")
        << " — usable, but not a complete record of the run\n";
    return 1;
  } catch (const std::exception& e) {
    err << "esstrace verify: " << path << ": " << e.what() << "\n";
    return 2;
  }
}

namespace {

/// Shell-style `*`/`?` match on a file name (no character classes — the
/// per-node capture names this expands never need them).
bool glob_match(const char* pat, const char* name) {
  for (; *pat != '\0'; ++pat, ++name) {
    if (*pat == '*') {
      while (*pat == '*') ++pat;
      for (const char* n = name + std::strlen(name); n >= name; --n) {
        if (glob_match(pat, n)) return true;
      }
      return false;
    }
    if (*name == '\0' || (*pat != '?' && *pat != *name)) return false;
  }
  return *name == '\0';
}

/// True when `path` is a readable ESST file already carrying multiple
/// nodes' records (a previous merge result). Unreadable files say false —
/// they pass through expansion so cmd_merge reports them itself.
bool is_merged_capture(const std::string& path) {
  try {
    std::ifstream f(path, std::ios::binary);
    telemetry::EsstReader reader(f);
    return reader.meta().multi_node;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

std::vector<std::string> expand_merge_inputs(
    const std::vector<std::string>& inputs) {
  namespace fs = std::filesystem;
  std::vector<std::string> out;
  for (const auto& in : inputs) {
    std::error_code ec;
    if (fs::is_directory(in, ec)) {
      std::vector<std::string> found;
      for (const auto& e : fs::directory_iterator(in)) {
        // A directory stands for the per-node captures in it; skip any
        // previous merge result living alongside them.
        if (e.is_regular_file() && e.path().extension() == ".esst" &&
            !is_merged_capture(e.path().string())) {
          found.push_back(e.path().string());
        }
      }
      if (found.empty()) {
        throw std::runtime_error("merge: no .esst files in " + in);
      }
      std::sort(found.begin(), found.end());
      out.insert(out.end(), found.begin(), found.end());
    } else if (in.find_first_of("*?") != std::string::npos) {
      const fs::path pat(in);
      const fs::path dir =
          pat.parent_path().empty() ? fs::path(".") : pat.parent_path();
      const std::string name_pat = pat.filename().string();
      std::vector<std::string> found;
      for (const auto& e : fs::directory_iterator(dir)) {
        if (e.is_regular_file() &&
            glob_match(name_pat.c_str(),
                       e.path().filename().string().c_str())) {
          found.push_back(e.path().string());
        }
      }
      if (found.empty()) {
        throw std::runtime_error("merge: nothing matches " + in);
      }
      std::sort(found.begin(), found.end());
      out.insert(out.end(), found.begin(), found.end());
    } else {
      out.push_back(in);
    }
  }
  return out;
}

int cmd_merge(const std::vector<std::string>& raw_inputs,
              const std::string& out_path, std::size_t jobs,
              std::ostream& out, std::ostream& err) {
  try {
    const std::vector<std::string> inputs = expand_merge_inputs(raw_inputs);
    for (const auto& in : inputs) {
      if (sniff_format(in) != TraceFormat::kEsst) {
        err << "esstrace merge: " << in << " is not an ESST file\n";
        return 2;
      }
    }
    const auto res = analysis::merge_esst(inputs, out_path, jobs);
    put(out, "merged %zu captures -> %s: %llu records, %.1f s (%llu bytes)\n",
        res.inputs, out_path.c_str(),
        static_cast<unsigned long long>(res.records_written),
        to_seconds(res.duration),
        static_cast<unsigned long long>(file_size(out_path)));
    if (res.dropped_records > 0) {
      put(out, "carried %llu dropped record(s) into the output trailer\n",
          static_cast<unsigned long long>(res.dropped_records));
    }
    return 0;
  } catch (const std::exception& e) {
    err << "esstrace merge: " << e.what() << "\n";
    return 2;
  }
}

namespace {

/// Shared by capture/capture-all: run the specs through the executor and
/// report each capture. Returns 0 when every capture wrote cleanly.
int run_captures(const std::vector<exec::JobSpec>& specs, std::size_t jobs,
                 std::ostream& out, std::ostream& err) {
  const auto outcomes = exec::run_jobs(specs, jobs);
  int rc = 0;
  for (const auto& o : outcomes) {
    if (o.esst_failed) {
      err << "esstrace capture: " << o.name << ": " << o.esst_error << "\n";
      rc = 2;
      continue;
    }
    put(out, "%s: %llu records -> %s (%llu bytes, %.1f s of sim time)\n",
        o.name.c_str(), static_cast<unsigned long long>(o.run.trace.size()),
        o.esst_path.c_str(),
        static_cast<unsigned long long>(file_size(o.esst_path)),
        to_seconds(o.run.run_time));
  }
  return rc;
}

exec::JobSpec capture_spec(exec::Experiment e, const std::string& out_path) {
  exec::JobSpec spec;
  spec.name = exec::to_string(e);
  spec.config = core::fast_study_config();
  spec.experiment = e;
  spec.esst_path = out_path;
  return spec;
}

}  // namespace

int cmd_capture(const std::string& experiment, const std::string& out_path,
                std::ostream& out, std::ostream& err) {
  exec::Experiment e;
  if (!exec::experiment_from_name(experiment, e)) {
    err << "esstrace capture: unknown experiment '" << experiment
        << "' (baseline|ppm|wavelet|nbody|combined)\n";
    return 2;
  }
  try {
    return run_captures({capture_spec(e, out_path)}, /*jobs=*/1, out, err);
  } catch (const std::exception& ex) {
    err << "esstrace capture: " << ex.what() << "\n";
    return 2;
  }
}

namespace {

/// The multi-node golden: a 2-node reduced-scale cluster baseline, one
/// ESST per node (node ids 1..n) plus their k-way merge — the fixture the
/// CI trace-diff gate uses to pin down `esstrace merge` and the v2 format.
/// Two nodes keep regeneration cheap while still exercising every
/// multi-node path (distinct node ids, timestamp-tie interleaving).
int capture_cluster(const std::string& dir, std::size_t jobs,
                    std::ostream& out, std::ostream& err) {
  const core::StudyConfig study = core::fast_study_config();
  const auto runs =
      exec::run_jobs(exec::cluster_jobs(2, study, exec::Experiment::kBaseline),
                     jobs == 0 ? exec::default_workers() : jobs);

  std::vector<std::string> node_paths;
  for (std::size_t n = 0; n < runs.size(); ++n) {
    const trace::TraceSet& ts = runs[n].run.trace;
    telemetry::EsstMeta meta;
    meta.node_id = static_cast<std::int32_t>(n + 1);
    meta.seed = study.seed;
    const std::string path =
        dir + "/cluster_node" + std::to_string(n + 1) + ".esst";
    telemetry::write_esst_file(ts, path, meta);
    put(out, "cluster node %zu: %zu records -> %s (%llu bytes)\n", n + 1,
        ts.size(), path.c_str(),
        static_cast<unsigned long long>(file_size(path)));
    node_paths.push_back(path);
  }
  return cmd_merge(node_paths, dir + "/cluster.esst", jobs, out, err);
}

}  // namespace

int cmd_capture_all(const std::string& dir, std::size_t jobs,
                    std::ostream& out, std::ostream& err) {
  try {
    std::filesystem::create_directories(dir);
    std::vector<exec::JobSpec> specs;
    for (const exec::Experiment e : exec::all_experiments()) {
      specs.push_back(
          capture_spec(e, dir + "/" + exec::to_string(e) + ".esst"));
    }
    const std::size_t workers =
        jobs == 0 ? exec::default_workers() : jobs;
    const int rc = run_captures(specs, workers, out, err);
    const int cluster_rc = capture_cluster(dir, jobs, out, err);
    return rc != 0 ? rc : cluster_rc;
  } catch (const std::exception& ex) {
    err << "esstrace capture-all: " << ex.what() << "\n";
    return 2;
  }
}

int cmd_capture_pdes(const std::string& dir, int nodes, std::size_t shards,
                     std::size_t jobs, std::ostream& out,
                     std::ostream& err) {
  if (nodes < 2) {
    err << "esstrace capture-pdes: need at least 2 nodes\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(dir);
    const core::StudyConfig scfg = core::fast_study_config();
    const pdes::CombinedRun run =
        pdes::run_combined(nodes, shards, jobs, scfg);
    const auto& traces = run.traces;
    const auto& stats = run.stats;
    put(out,
        "pdes: %d nodes over %zu shard(s), run %s: %llu msgs, %llu "
        "barriers\n",
        nodes, run.shards, run.completed ? "completed" : "CAPPED",
        static_cast<unsigned long long>(stats.sends),
        static_cast<unsigned long long>(stats.barriers_completed));
    if (const char* p = std::getenv("ESS_PROGRESS"); p && p[0] == '1') {
      // Scheduler counters (partition-dependent, unlike the traffic stats
      // above): how many windows paid the serialized drain, how many were
      // fused past it, and how many per-window shard runs were elided.
      put(out,
          "pdes: scheduler: %llu sync windows, %llu fused, %llu shard "
          "runs elided\n",
          static_cast<unsigned long long>(stats.windows),
          static_cast<unsigned long long>(stats.fused_windows),
          static_cast<unsigned long long>(stats.elided_shards));
    }

    std::vector<std::string> parts;
    std::uint64_t total_records = 0;
    for (std::size_t n = 0; n < traces.size(); ++n) {
      telemetry::EsstMeta meta;
      meta.node_id = static_cast<std::int32_t>(n + 1);
      meta.seed = scfg.seed;
      char name[40];
      std::snprintf(name, sizeof name, "pdes_node%04zu.esst", n + 1);
      const std::string path = dir + "/" + name;
      telemetry::write_esst_file(traces[n], path, meta);
      total_records += traces[n].size();
      parts.push_back(path);
    }
    put(out, "pdes: %zu per-node captures (%llu records) -> %s\n",
        parts.size(), static_cast<unsigned long long>(total_records),
        (dir + "/pdes_node*.esst").c_str());
    return cmd_merge(parts, dir + "/pdes.esst", jobs, out, err);
  } catch (const std::exception& ex) {
    err << "esstrace capture-pdes: " << ex.what() << "\n";
    return 2;
  }
}

}  // namespace ess::esstrace
