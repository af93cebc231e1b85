// Trace characterization: the metrics of the paper's Section 4.
//
// "A number of metrics were used ... including I/O request size, the
// distribution of requests by disk sectors, and the average time between
// consecutive accesses to the same sector. Spatial locality ... from the
// distribution of requests by sector number, and temporal locality ...
// from the time elapsed between accesses to a particular sector."
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace_set.hpp"
#include "util/stats.hpp"

namespace ess::analysis {

/// Table 1 row: read/write mix and request rate.
struct RwMix {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double read_pct = 0;
  double write_pct = 0;
  double requests_per_sec = 0;
  std::uint64_t total = 0;
};

RwMix rw_mix(const trace::TraceSet& ts);

/// Request sizes bucketed to exact byte values (1024, 2048, 4096, ...).
Histogram request_size_histogram(const trace::TraceSet& ts);

/// Fraction of requests whose size equals `bytes`.
double size_class_fraction(const trace::TraceSet& ts, std::uint32_t bytes);

/// Fraction of requests with size >= `bytes`.
double size_at_least_fraction(const trace::TraceSet& ts, std::uint32_t bytes);

/// (time, size, is_write) points for the request-size-vs-time figures.
struct SizePoint {
  double t_sec;
  double size_kb;
  bool is_write;
};
std::vector<SizePoint> size_time_series(const trace::TraceSet& ts);

/// (time, sector, is_write) points for the sector-vs-time figures.
struct SectorPoint {
  double t_sec;
  double sector;
  bool is_write;
};
std::vector<SectorPoint> sector_time_series(const trace::TraceSet& ts);

/// Spatial locality (Fig. 7): percentage of requests per band of
/// `band_sectors` sectors (the paper uses 100K bands).
struct SpatialBand {
  std::uint64_t band_start_sector = 0;
  std::uint64_t requests = 0;
  double pct = 0;
};
std::vector<SpatialBand> spatial_locality(const trace::TraceSet& ts,
                                          std::uint64_t band_sectors = 100'000);

/// Temporal locality (Fig. 8): per-sector access frequency (accesses per
/// second averaged over the trace duration). Only sectors with at least
/// `min_accesses` appear.
struct SectorFrequency {
  std::uint64_t sector = 0;
  std::uint64_t accesses = 0;
  double per_sec = 0;
};
std::vector<SectorFrequency> temporal_locality(const trace::TraceSet& ts,
                                               std::uint64_t min_accesses = 2);

/// The paper's hot spots: top-k sectors by access frequency.
std::vector<SectorFrequency> hot_spots(const trace::TraceSet& ts,
                                       std::size_t k);

/// Mean time between consecutive accesses to the same sector, over sectors
/// accessed at least twice.
double mean_reuse_gap_sec(const trace::TraceSet& ts);

/// The fraction of distinct accessed sectors that covers `coverage` of all
/// requests (how concentrated the accessed set itself is).
double sector_coverage_fraction(const trace::TraceSet& ts, double coverage);

/// "Almost follows the 90/10 rule": the smallest fraction of the WHOLE
/// DISK (total_sectors) whose sectors account for `coverage` of requests.
double disk_fraction_for_coverage(const trace::TraceSet& ts, double coverage,
                                  std::uint64_t total_sectors = 1'018'080);

/// Requests per second in fixed windows (activity over time).
std::vector<double> rate_over_time(const trace::TraceSet& ts,
                                   SimTime window);

/// Summary block used by Table 1 and EXPERIMENTS.md.
struct TraceSummary {
  std::string experiment;
  RwMix mix;
  double pct_1k = 0;
  double pct_2k = 0;
  double pct_4k = 0;
  double pct_ge_8k = 0;
  double pct_ge_16k = 0;
  std::uint32_t max_request_bytes = 0;
  double duration_sec = 0;
};
TraceSummary summarize(const trace::TraceSet& ts);

/// Mean of per-node summaries, as Table 1 averages per disk: request
/// counts, rates, size-class percentages and durations are per-node
/// means, the read/write split comes from the summed counts, and the
/// largest request is the maximum over nodes.
TraceSummary average_summaries(const std::vector<TraceSummary>& xs);

}  // namespace ess::analysis
