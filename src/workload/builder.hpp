// Fluent construction of OpTraces, used by the real applications (phase A)
// and by the synthetic workload generators.
#pragma once

#include <string>

#include "util/rng.hpp"
#include "workload/op.hpp"

namespace ess::workload {

class OpTraceBuilder {
 public:
  explicit OpTraceBuilder(std::string app_name);

  OpTraceBuilder& set_image_bytes(std::uint64_t n);
  OpTraceBuilder& set_anon_bytes(std::uint64_t n);
  OpTraceBuilder& set_image_warm_fraction(double f);

  /// Declare an input file that the experiment must stage before the run.
  FileRef input_file(const std::string& path, std::uint64_t size,
                     std::uint64_t goal_block = 0);
  /// Declare an output file created at spawn.
  FileRef output_file(const std::string& path);

  OpTraceBuilder& compute(SimTime duration);
  OpTraceBuilder& read(FileRef f, std::uint64_t offset, std::uint64_t len);
  OpTraceBuilder& write(FileRef f, std::uint64_t offset, std::uint64_t len);
  OpTraceBuilder& append(FileRef f, std::uint64_t len);

  /// Create a temporary file of `bytes` (deleted later with unlink()).
  OpTraceBuilder& scratch_create(const std::string& path,
                                 std::uint64_t bytes);
  /// Delete a file previously created with scratch_create.
  OpTraceBuilder& unlink(const std::string& path);

  /// PVM-style messaging (requires a kernel::MessageFabric at run time).
  OpTraceBuilder& send(int dst_rank, std::uint64_t bytes, int tag = 0);
  OpTraceBuilder& recv(int src_rank = -1, int tag = 0);
  OpTraceBuilder& barrier(int participants = 0, int group = 0);

  /// One page access (virtual page number; image pages first, then anon).
  OpTraceBuilder& touch(std::uint64_t vpage, bool write);

  /// Touch a run of pages [first, first+count) in one op.
  OpTraceBuilder& touch_range(std::uint64_t first, std::uint64_t count,
                              bool write);

  /// Model a compute phase with a working set: interleaves compute slices
  /// with touches of `pages_per_slice` pages sampled uniformly from
  /// [ws_first, ws_first + ws_pages), using `rng` for reproducible sampling.
  OpTraceBuilder& compute_with_working_set(SimTime total, std::uint64_t ws_first,
                                           std::uint64_t ws_pages,
                                           std::uint32_t slices,
                                           std::uint32_t pages_per_slice,
                                           double write_fraction, Rng& rng);

  /// First virtual page of the anonymous region (image pages come first).
  std::uint64_t anon_first_page() const;

  OpTrace build() &&;
  const OpTrace& peek() const { return trace_; }

 private:
  TouchOp& current_touch();
  void close_touch();

  OpTrace trace_;
  bool touch_open_ = false;
};

}  // namespace ess::workload
