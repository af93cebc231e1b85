#include "workload/builder.hpp"

#include <stdexcept>
#include <utility>

namespace ess::workload {

OpTraceBuilder::OpTraceBuilder(std::string app_name) {
  trace_.app_name = std::move(app_name);
}

OpTraceBuilder& OpTraceBuilder::set_image_bytes(std::uint64_t n) {
  trace_.image_bytes = n;
  return *this;
}

OpTraceBuilder& OpTraceBuilder::set_anon_bytes(std::uint64_t n) {
  trace_.anon_bytes = n;
  return *this;
}

OpTraceBuilder& OpTraceBuilder::set_image_warm_fraction(double f) {
  trace_.image_warm_fraction = f;
  return *this;
}

FileRef OpTraceBuilder::input_file(const std::string& path,
                                   std::uint64_t size,
                                   std::uint64_t goal_block) {
  trace_.files.push_back(FileDecl{path, false, size, goal_block});
  return static_cast<FileRef>(trace_.files.size() - 1);
}

FileRef OpTraceBuilder::output_file(const std::string& path) {
  trace_.files.push_back(FileDecl{path, true, 0, 0});
  return static_cast<FileRef>(trace_.files.size() - 1);
}

OpTraceBuilder& OpTraceBuilder::compute(SimTime duration) {
  close_touch();
  if (duration > 0) {
    // Merge with a preceding compute op to keep traces compact.
    if (!trace_.ops.empty()) {
      if (auto* c = std::get_if<ComputeOp>(&trace_.ops.back())) {
        c->duration += duration;
        return *this;
      }
    }
    trace_.ops.emplace_back(std::in_place_type<ComputeOp>, duration);
  }
  return *this;
}

OpTraceBuilder& OpTraceBuilder::read(FileRef f, std::uint64_t offset,
                                     std::uint64_t len) {
  close_touch();
  if (f >= trace_.files.size()) throw std::out_of_range("bad FileRef");
  trace_.ops.emplace_back(std::in_place_type<ReadOp>, f, offset, len);
  return *this;
}

OpTraceBuilder& OpTraceBuilder::write(FileRef f, std::uint64_t offset,
                                      std::uint64_t len) {
  close_touch();
  if (f >= trace_.files.size()) throw std::out_of_range("bad FileRef");
  trace_.ops.emplace_back(std::in_place_type<WriteOp>, f, offset, len);
  return *this;
}

OpTraceBuilder& OpTraceBuilder::append(FileRef f, std::uint64_t len) {
  return write(f, kAppend, len);
}

OpTraceBuilder& OpTraceBuilder::scratch_create(const std::string& path,
                                               std::uint64_t bytes) {
  close_touch();
  trace_.ops.emplace_back(std::in_place_type<ScratchCreateOp>, path, bytes);
  return *this;
}

OpTraceBuilder& OpTraceBuilder::unlink(const std::string& path) {
  close_touch();
  trace_.ops.emplace_back(std::in_place_type<UnlinkOp>, path);
  return *this;
}

OpTraceBuilder& OpTraceBuilder::send(int dst_rank, std::uint64_t bytes,
                                     int tag) {
  close_touch();
  trace_.ops.emplace_back(std::in_place_type<SendOp>, dst_rank, bytes, tag);
  return *this;
}

OpTraceBuilder& OpTraceBuilder::recv(int src_rank, int tag) {
  close_touch();
  trace_.ops.emplace_back(std::in_place_type<RecvOp>, src_rank, tag);
  return *this;
}

OpTraceBuilder& OpTraceBuilder::barrier(int participants, int group) {
  close_touch();
  trace_.ops.emplace_back(std::in_place_type<BarrierOp>, group, participants);
  return *this;
}

TouchOp& OpTraceBuilder::current_touch() {
  if (!touch_open_) {
    trace_.ops.emplace_back(std::in_place_type<TouchOp>);
    touch_open_ = true;
  }
  return std::get<TouchOp>(trace_.ops.back());
}

void OpTraceBuilder::close_touch() { touch_open_ = false; }

OpTraceBuilder& OpTraceBuilder::touch(std::uint64_t vpage, bool write) {
  current_touch().pages.push_back(PageAccess{vpage, write});
  return *this;
}

OpTraceBuilder& OpTraceBuilder::touch_range(std::uint64_t first,
                                            std::uint64_t count, bool write) {
  auto& t = current_touch();
  t.pages.reserve(t.pages.size() + count);
  for (std::uint64_t i = 0; i < count; ++i) {
    t.pages.push_back(PageAccess{first + i, write});
  }
  return *this;
}

OpTraceBuilder& OpTraceBuilder::compute_with_working_set(
    SimTime total, std::uint64_t ws_first, std::uint64_t ws_pages,
    std::uint32_t slices, std::uint32_t pages_per_slice,
    double write_fraction, Rng& rng) {
  if (slices == 0) throw std::invalid_argument("slices == 0");
  const SimTime slice = total / slices;
  // Skewed page popularity (an 80/20-style rule): most touches go to a hot
  // quarter of the working set. Real codes' reference streams are far from
  // uniform, and this is what produces the paper's spatial/temporal
  // locality ("almost follows the 90/10 rule", hot spots on disk).
  const std::uint64_t hot_pages = std::max<std::uint64_t>(1, ws_pages / 4);
  for (std::uint32_t s = 0; s < slices; ++s) {
    for (std::uint32_t p = 0; p < pages_per_slice; ++p) {
      const std::uint64_t page =
          rng.chance(0.75) ? ws_first + rng.uniform(hot_pages)
                           : ws_first + rng.uniform(ws_pages);
      touch(page, rng.chance(write_fraction));
    }
    compute(slice);
  }
  return *this;
}

std::uint64_t OpTraceBuilder::anon_first_page() const {
  return trace_.image_pages();
}

OpTrace OpTraceBuilder::build() && {
  close_touch();
  return std::move(trace_);
}

}  // namespace ess::workload
