// Substrate microbenchmarks (google-benchmark): throughput of the building
// blocks the study runs on — disk service model, elevator, buffer cache,
// VM fault path, RNG, wavelet transform, oct-tree build/force.
#include <benchmark/benchmark.h>

#include "apps/nbody/octree.hpp"
#include "apps/ppm/euler2d.hpp"
#include "apps/wavelet/wavelet2d.hpp"
#include "block/buffer_cache.hpp"
#include "disk/drive.hpp"
#include "mm/vm.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace ess;

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
}
BENCHMARK(BM_RngNextU64);

void BM_EngineScheduleFire(benchmark::State& state) {
  sim::Engine engine;
  for (auto _ : state) {
    engine.schedule_after(1, [] {});
    engine.step();
  }
}
BENCHMARK(BM_EngineScheduleFire);

void BM_DiskServiceTime(benchmark::State& state) {
  const disk::ServiceModel model(disk::beowulf_geometry(),
                                 disk::ServiceParams{});
  disk::Request req;
  req.sector = 500'000;
  req.sector_count = 8;
  std::uint64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.service_time(req, t, 100));
    t += 1000;
  }
}
BENCHMARK(BM_DiskServiceTime);

void BM_DriveSubmitComplete(benchmark::State& state) {
  sim::Engine engine;
  disk::Drive drive(engine, disk::ServiceModel(disk::beowulf_geometry(),
                                               disk::ServiceParams{}));
  Rng rng(2);
  for (auto _ : state) {
    disk::Request req;
    req.sector = rng.uniform(1'000'000);
    req.sector_count = 2;
    req.dir = disk::Dir::kWrite;
    drive.submit(req);
    engine.run();
  }
}
BENCHMARK(BM_DriveSubmitComplete);

void BM_ElevatorPushPop(benchmark::State& state) {
  disk::ElevatorScheduler sched;
  Rng rng(3);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      disk::Request r;
      r.sector = rng.uniform(1'000'000);
      r.sector_count = 2;
      sched.push(r);
    }
    std::uint64_t head = 0;
    while (auto r = sched.pop(head)) head = r->sector;
    benchmark::DoNotOptimize(head);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ElevatorPushPop)->Arg(16)->Arg(128);

void BM_BufferCacheHit(benchmark::State& state) {
  sim::Engine engine;
  disk::Drive drive(engine, disk::ServiceModel(disk::beowulf_geometry(),
                                               disk::ServiceParams{}));
  driver::IdeDriver drv(drive, nullptr);
  block::BufferCache cache(drv, block::CacheConfig{});
  cache.read_range(0, 64, [] {});
  engine.run();
  for (auto _ : state) {
    cache.read_range(0, 64, [] {});
  }
  state.SetBytesProcessed(state.iterations() * 64 * 1024);
}
BENCHMARK(BM_BufferCacheHit);

void BM_VmResidentTouch(benchmark::State& state) {
  sim::Engine engine;
  disk::Drive drive(engine, disk::ServiceModel(disk::beowulf_geometry(),
                                               disk::ServiceParams{}));
  driver::IdeDriver drv(drive, nullptr);
  block::BufferCache cache(drv, block::CacheConfig{});
  mm::FramePool frames(256);
  mm::SwapManager swap(drv, 900'000, 1024);
  mm::Vm vm(frames, swap, cache);
  vm.create_address_space(1, {mm::Segment{0, 128, false, 0}});
  for (mm::VPage p = 0; p < 128; ++p) {
    vm.touch(1, p, true, [](mm::FaultKind) {});
  }
  engine.run();
  mm::VPage p = 0;
  for (auto _ : state) {
    vm.touch(1, p, false, [](mm::FaultKind) {});
    p = (p + 1) % 128;
  }
}
BENCHMARK(BM_VmResidentTouch);

void BM_WaveletForward2D(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  const auto scene = apps::wavelet::synthetic_scene(n, 1);
  for (auto _ : state) {
    auto p = scene;
    benchmark::DoNotOptimize(
        apps::wavelet::forward2d(p, 4, apps::wavelet::Filter::kDaub4));
  }
  state.SetBytesProcessed(state.iterations() * n * n * 8);
}
BENCHMARK(BM_WaveletForward2D)->Arg(128)->Arg(512);

void BM_OctreeBuild(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  apps::nbody::NBodySim sim(n, 1);
  apps::nbody::Octree tree;
  for (auto _ : state) {
    tree.build(sim.bodies());
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OctreeBuild)->Arg(1024)->Arg(8192);

void BM_OctreeForcePass(benchmark::State& state) {
  apps::nbody::NBodySim sim(2048, 2);
  auto bodies = sim.bodies();
  apps::nbody::Octree tree;
  tree.build(bodies);
  std::uint64_t inter = 0;
  for (auto _ : state) {
    inter = tree.accelerations(bodies, 0.85, 0.05);
    benchmark::DoNotOptimize(inter);
    benchmark::DoNotOptimize(bodies.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(inter));
}
BENCHMARK(BM_OctreeForcePass);

void BM_PpmStep(benchmark::State& state) {
  apps::ppm::PpmSolver solver(120, 240, 1.0 / 120, 1.0 / 120);
  solver.init_blast(0.1, 10.0, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.step(0.4));
  }
  state.SetItemsProcessed(state.iterations() * 120 * 240);
}
BENCHMARK(BM_PpmStep);

}  // namespace

BENCHMARK_MAIN();
