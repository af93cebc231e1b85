// Extension E-pdes: the combined parallel workload on the sharded
// window machine, swept across shard/worker counts.
//
// The PDES layer's contract is byte-level: partitioning the simulated
// cluster across shards and running the shards on a thread pool must
// reproduce the serial machine's per-node traces exactly. This harness
// runs the production mix (PPM + wavelet + N-body spanning every node,
// world = 3N ranks) once on the serial reference (1 shard, inline) and
// then across a shard/job sweep, compares every node's trace against the
// reference record for record, and prints the scaling table with the
// epoch scheduler's window counters (sync windows that paid the
// serialized drain, fused windows that skipped it, elided shard runs).
//
// Gates, mirroring ext_scan_scaling's conventions:
//   * every sweep row is record-identical to the serial reference and
//     completed before the cap (always);
//   * shards=4/jobs=4 is not slower than serial, with generous tolerance
//     for scheduler noise — this must hold even on a single-core host,
//     where the epoch gang's only honest cost is a pair of futex ops per
//     multi-shard window;
//   * the fused-window counter is non-zero on the sharded run: the
//     serialized-window count is strictly below the pre-fusion scheduler,
//     which paid a drain + full pool round-trip for every window;
//   * on >=4-core full-mode hosts at 256+ nodes, shards=4/jobs=4 must
//     actually win (>= min(2, hw/2)).
//
// ESS_NODES overrides the node count (default 8 in fast mode, 256 in
// full mode — large enough to arm the multi-core win gate; 1024 = the
// headline run). The workload runs at the reduced capture scale
// (core::fast_study_config) regardless of ESS_FAST: the scaling axis
// here is the node count, not the per-node I/O volume.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/presets.hpp"
#include "pdes/combined.hpp"

int main() {
  using namespace ess;
  int nodes = bench::fast_mode() ? 8 : 256;
  if (const char* v = std::getenv("ESS_NODES")) nodes = std::atoi(v);
  if (nodes < 2) nodes = 2;
  const std::size_t hw = std::thread::hardware_concurrency();

  const core::StudyConfig scfg = core::fast_study_config();
  const auto cap = static_cast<std::size_t>(nodes);
  std::vector<std::pair<std::size_t, std::size_t>> sweep;  // (shards, jobs)
  sweep.push_back({1, 1});  // serial reference
  for (const auto& [s, j] : std::initializer_list<
           std::pair<std::size_t, std::size_t>>{{2, 2}, {4, 4}, {8, 8}}) {
    if (s <= cap && s > sweep.back().first) sweep.push_back({s, j});
  }

  std::printf("PDES shard scaling, combined load on %d nodes (world %d):\n\n",
              nodes, 3 * nodes);
  std::printf("  %7s %5s %9s %9s %9s %9s %8s %10s  %s\n", "shards", "jobs",
              "wall s", "msgs", "windows", "fused", "elided", "records",
              "vs serial");

  bool all_completed = true;
  bool all_identical = true;
  double serial_wall = 0;
  double wall44 = -1;
  std::uint64_t fused44 = 0;
  pdes::CombinedRun ref;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const auto [s, j] = sweep[i];
    auto r = pdes::run_combined(nodes, s, j, scfg);
    all_completed &= r.completed;
    std::uint64_t records = 0;
    for (const auto& t : r.traces) records += t.size();
    const bool same = i == 0 || pdes::traces_identical(ref.traces, r.traces);
    all_identical &= same;
    char vs[32];
    if (i == 0) {
      serial_wall = r.wall_seconds;
      std::snprintf(vs, sizeof vs, "(reference)");
    } else {
      std::snprintf(vs, sizeof vs, "%s %.2fx",
                    same ? "identical" : "DIVERGED",
                    r.wall_seconds > 0 ? serial_wall / r.wall_seconds : 0.0);
    }
    if (s == 4 && j == 4) {
      wall44 = r.wall_seconds;
      fused44 = r.stats.fused_windows;
    }
    std::printf("  %7zu %5zu %9.2f %9llu %9llu %9llu %8llu %10llu  %s\n", s,
                j, r.wall_seconds,
                static_cast<unsigned long long>(r.stats.sends),
                static_cast<unsigned long long>(r.stats.windows),
                static_cast<unsigned long long>(r.stats.fused_windows),
                static_cast<unsigned long long>(r.stats.elided_shards),
                static_cast<unsigned long long>(records), vs);
    if (i == 0) ref = std::move(r);
  }
  std::printf("\nChecks:\n");
  bool ok = true;
  ok &= bench::check("every run completed before the cap", all_completed, "");
  ok &= bench::check("per-node traces identical at every shard/job count",
                     all_identical, "");
  if (wall44 >= 0) {
    // Single-core hosts timeslice the gang through one cache; the slack
    // is deliberately generous either way — a regression tripwire, not a
    // performance claim (the claim is the multi-core gate below).
    const double tol = hw >= 4 ? 1.35 : 2.0;
    char gate[96];
    std::snprintf(gate, sizeof gate,
                  "shards=4/jobs=4 not slower than serial (tolerance %.2fx)",
                  tol);
    ok &= bench::check(gate, wall44 <= serial_wall * tol,
                       bench::fmt("%.2fx", wall44 / serial_wall) +
                           " of serial wall");
    // Pre-fusion, every window paid the serialized drain: sync windows ==
    // windows + fused. Any fused window means the count is strictly lower.
    ok &= bench::check("window fusion engaged (sync windows < pre-change)",
                       fused44 > 0,
                       bench::fmt("%.0f fused", double(fused44)));
    if (hw >= 4 && !bench::fast_mode() && nodes >= 256) {
      const double want = std::min(2.0, static_cast<double>(hw) / 2);
      const double speedup = serial_wall / wall44;
      ok &= bench::check("shards=4/jobs=4 wins on multi-core host",
                         speedup >= want, bench::fmt("%.2fx", speedup));
    } else {
      std::printf("  [--] speedup check skipped (%zu core%s, %d nodes%s)\n",
                  hw, hw == 1 ? "" : "s", nodes,
                  bench::fast_mode() ? ", fast mode" : "");
    }
  }
  return ok ? 0 : 1;
}
