#include "analysis/characterize.hpp"

#include <algorithm>
#include <unordered_map>

namespace ess::analysis {

RwMix rw_mix(const trace::TraceSet& ts) {
  RwMix m;
  for (const auto& r : ts.records()) {
    if (r.is_write) {
      ++m.writes;
    } else {
      ++m.reads;
    }
  }
  m.total = m.reads + m.writes;
  if (m.total > 0) {
    m.read_pct = 100.0 * static_cast<double>(m.reads) /
                 static_cast<double>(m.total);
    m.write_pct = 100.0 - m.read_pct;
  }
  const double dur = to_seconds(ts.duration());
  m.requests_per_sec = dur > 0 ? static_cast<double>(m.total) / dur : 0.0;
  return m;
}

Histogram request_size_histogram(const trace::TraceSet& ts) {
  Histogram h;
  for (const auto& r : ts.records()) h.add(r.size_bytes);
  return h;
}

double size_class_fraction(const trace::TraceSet& ts, std::uint32_t bytes) {
  if (ts.empty()) return 0.0;
  std::uint64_t n = 0;
  for (const auto& r : ts.records()) {
    if (r.size_bytes == bytes) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(ts.size());
}

double size_at_least_fraction(const trace::TraceSet& ts,
                              std::uint32_t bytes) {
  if (ts.empty()) return 0.0;
  std::uint64_t n = 0;
  for (const auto& r : ts.records()) {
    if (r.size_bytes >= bytes) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(ts.size());
}

std::vector<SizePoint> size_time_series(const trace::TraceSet& ts) {
  std::vector<SizePoint> out;
  out.reserve(ts.size());
  for (const auto& r : ts.records()) {
    out.push_back(SizePoint{to_seconds(r.timestamp),
                            static_cast<double>(r.size_bytes) / 1024.0,
                            r.is_write != 0});
  }
  return out;
}

std::vector<SectorPoint> sector_time_series(const trace::TraceSet& ts) {
  std::vector<SectorPoint> out;
  out.reserve(ts.size());
  for (const auto& r : ts.records()) {
    out.push_back(SectorPoint{to_seconds(r.timestamp),
                              static_cast<double>(r.sector),
                              r.is_write != 0});
  }
  return out;
}

std::vector<SpatialBand> spatial_locality(const trace::TraceSet& ts,
                                          std::uint64_t band_sectors) {
  std::map<std::uint64_t, std::uint64_t> bands;
  for (const auto& r : ts.records()) {
    bands[r.sector / band_sectors * band_sectors]++;
  }
  std::vector<SpatialBand> out;
  const auto total = static_cast<double>(ts.size());
  for (const auto& [start, n] : bands) {
    out.push_back(SpatialBand{start, n,
                              total > 0 ? 100.0 * static_cast<double>(n) / total
                                        : 0.0});
  }
  return out;
}

std::vector<SectorFrequency> temporal_locality(const trace::TraceSet& ts,
                                               std::uint64_t min_accesses) {
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (const auto& r : ts.records()) counts[r.sector]++;
  const double dur = std::max(to_seconds(ts.duration()), 1e-9);
  std::vector<SectorFrequency> out;
  for (const auto& [sector, n] : counts) {
    if (n >= min_accesses) {
      out.push_back(
          SectorFrequency{sector, n, static_cast<double>(n) / dur});
    }
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.sector < b.sector;
  });
  return out;
}

std::vector<SectorFrequency> hot_spots(const trace::TraceSet& ts,
                                       std::size_t k) {
  auto all = temporal_locality(ts, 1);
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.accesses != b.accesses) return a.accesses > b.accesses;
    return a.sector < b.sector;
  });
  if (all.size() > k) all.resize(k);
  return all;
}

double mean_reuse_gap_sec(const trace::TraceSet& ts) {
  std::unordered_map<std::uint64_t, SimTime> last;
  OnlineStats gaps;
  for (const auto& r : ts.records()) {
    const auto it = last.find(r.sector);
    if (it != last.end()) {
      gaps.add(to_seconds(r.timestamp - it->second));
      it->second = r.timestamp;
    } else {
      last.emplace(r.sector, r.timestamp);
    }
  }
  return gaps.mean();
}

double sector_coverage_fraction(const trace::TraceSet& ts, double coverage) {
  Histogram h;
  for (const auto& r : ts.records()) {
    h.add(static_cast<std::int64_t>(r.sector));
  }
  return coverage_fraction(h, coverage);
}

double disk_fraction_for_coverage(const trace::TraceSet& ts, double coverage,
                                  std::uint64_t total_sectors) {
  if (ts.empty() || total_sectors == 0) return 0.0;
  std::unordered_map<std::uint64_t, std::uint64_t> counts;
  for (const auto& r : ts.records()) counts[r.sector]++;
  std::vector<std::uint64_t> freq;
  freq.reserve(counts.size());
  for (const auto& [s, n] : counts) freq.push_back(n);
  std::sort(freq.begin(), freq.end(), std::greater<>());
  const double target = coverage * static_cast<double>(ts.size());
  double acc = 0;
  std::uint64_t used = 0;
  for (const auto n : freq) {
    acc += static_cast<double>(n);
    ++used;
    if (acc >= target) break;
  }
  return static_cast<double>(used) / static_cast<double>(total_sectors);
}

std::vector<double> rate_over_time(const trace::TraceSet& ts,
                                   SimTime window) {
  const SimTime dur = ts.duration();
  if (dur == 0 || window == 0) return {};
  std::vector<double> out((dur + window - 1) / window, 0.0);
  for (const auto& r : ts.records()) {
    const std::size_t w = std::min<std::size_t>(r.timestamp / window,
                                                out.size() - 1);
    out[w] += 1.0;
  }
  const double wsec = to_seconds(window);
  for (auto& v : out) v /= wsec;
  return out;
}

TraceSummary summarize(const trace::TraceSet& ts) {
  TraceSummary s;
  s.experiment = ts.experiment();
  s.mix = rw_mix(ts);
  s.pct_1k = 100.0 * size_class_fraction(ts, 1024);
  s.pct_2k = 100.0 * size_class_fraction(ts, 2048);
  s.pct_4k = 100.0 * size_class_fraction(ts, 4096);
  s.pct_ge_8k = 100.0 * size_at_least_fraction(ts, 8 * 1024);
  s.pct_ge_16k = 100.0 * size_at_least_fraction(ts, 16 * 1024);
  for (const auto& r : ts.records()) {
    s.max_request_bytes = std::max(s.max_request_bytes, r.size_bytes);
  }
  s.duration_sec = to_seconds(ts.duration());
  return s;
}

TraceSummary average_summaries(const std::vector<TraceSummary>& xs) {
  TraceSummary avg;
  if (xs.empty()) return avg;
  avg.experiment = xs.front().experiment;
  const double n = static_cast<double>(xs.size());
  double total = 0;
  for (const auto& s : xs) {
    avg.mix.reads += s.mix.reads;
    avg.mix.writes += s.mix.writes;
    avg.mix.requests_per_sec += s.mix.requests_per_sec / n;
    total += static_cast<double>(s.mix.total) / n;
    avg.pct_1k += s.pct_1k / n;
    avg.pct_2k += s.pct_2k / n;
    avg.pct_4k += s.pct_4k / n;
    avg.pct_ge_8k += s.pct_ge_8k / n;
    avg.pct_ge_16k += s.pct_ge_16k / n;
    avg.max_request_bytes = std::max(avg.max_request_bytes,
                                     s.max_request_bytes);
    avg.duration_sec += s.duration_sec / n;
  }
  avg.mix.total = static_cast<std::uint64_t>(total);
  const auto rw = avg.mix.reads + avg.mix.writes;
  if (rw > 0) {
    avg.mix.read_pct =
        100.0 * static_cast<double>(avg.mix.reads) / static_cast<double>(rw);
    avg.mix.write_pct = 100.0 - avg.mix.read_pct;
  }
  // reads/writes were summed across nodes; scale to per-disk means.
  avg.mix.reads = static_cast<std::uint64_t>(
      static_cast<double>(avg.mix.reads) / n);
  avg.mix.writes = static_cast<std::uint64_t>(
      static_cast<double>(avg.mix.writes) / n);
  return avg;
}

}  // namespace ess::analysis
