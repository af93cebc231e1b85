// Phase-A profiles shared by the Studies of one batch.
//
// Phase A (an application's real numerics) is a pure function of the
// app's numerics config, so every Study of a batch that runs the same code
// at the same size can share one profile; only trace assembly, which draws
// from the Study's own Rng and CPU model, stays per Study. The store lives
// as long as the batch that created it — one exec::run_jobs call, such as
// the per-node jobs of one cluster run — and is never global, so repeated
// batches start cold.
//
// N-body numerics post each force pass on the store's fork-join board, and
// a Study that waits for a profile works those blocks meanwhile (await),
// so the N-body run spreads over the batch's own blocked threads.
#pragma once

#include <chrono>
#include <cstddef>
#include <future>
#include <mutex>
#include <utility>
#include <vector>

#include "apps/nbody/nbody_app.hpp"
#include "apps/ppm/ppm_app.hpp"
#include "apps/wavelet/wavelet_app.hpp"
#include "util/fork_join.hpp"

namespace ess::core {

class PhaseAStore {
 public:
  /// The profile for `key`. The first caller for a key runs the numerics on
  /// its own thread before returning; later callers get the same future at
  /// once and block only in get(). An exception thrown by the numerics is
  /// stored and rethrown by every get().
  std::shared_future<apps::ppm::PpmProfile> ppm(
      const apps::ppm::PpmNumerics& key);
  std::shared_future<apps::wavelet::WaveletProfile> wavelet(
      const apps::wavelet::WaveletNumerics& key);
  std::shared_future<apps::nbody::NBodyProfile> nbody(
      const apps::nbody::NBodyNumerics& key);

  /// f.get(), working the board's posted blocks while f is not ready.
  template <typename Profile>
  const Profile& await(const std::shared_future<Profile>& f) {
    board_.help_until([&f] {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    return f.get();
  }

  /// Numerics runs started so far: one per distinct key.
  std::size_t computations() const;

 private:
  // A handful of keys per batch: a linear scan with the configs' defaulted
  // operator== has no hash to collide.
  template <typename Key, typename Profile>
  using Entries = std::vector<std::pair<Key, std::shared_future<Profile>>>;

  /// The future for `key`, running compute() first when it is new.
  template <typename Key, typename Profile, typename Compute>
  std::shared_future<Profile> claim(Entries<Key, Profile>& entries,
                                    const Key& key, Compute compute);

  mutable std::mutex mu_;
  Entries<apps::ppm::PpmNumerics, apps::ppm::PpmProfile> ppm_;
  Entries<apps::wavelet::WaveletNumerics, apps::wavelet::WaveletProfile>
      wavelet_;
  Entries<apps::nbody::NBodyNumerics, apps::nbody::NBodyProfile> nbody_;
  std::size_t computations_ = 0;
  util::ForkJoinBoard board_;
};

}  // namespace ess::core
