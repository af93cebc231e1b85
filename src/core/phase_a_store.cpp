#include "core/phase_a_store.hpp"

#include <exception>

namespace ess::core {

template <typename Key, typename Profile, typename Compute>
std::shared_future<Profile> PhaseAStore::claim(Entries<Key, Profile>& entries,
                                               const Key& key,
                                               Compute compute) {
  std::promise<Profile> promise;
  std::shared_future<Profile> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [k, f] : entries) {
      if (k == key) return f;
    }
    future = promise.get_future().share();
    entries.emplace_back(key, future);
    ++computations_;
  }
  // Outside the lock, so claims of other keys go ahead meanwhile.
  try {
    promise.set_value(compute());
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  board_.wake();  // await() callers check their futures again
  return future;
}

std::shared_future<apps::ppm::PpmProfile> PhaseAStore::ppm(
    const apps::ppm::PpmNumerics& key) {
  return claim(ppm_, key, [&] { return apps::ppm::numerics(key); });
}

std::shared_future<apps::wavelet::WaveletProfile> PhaseAStore::wavelet(
    const apps::wavelet::WaveletNumerics& key) {
  return claim(wavelet_, key, [&] { return apps::wavelet::numerics(key); });
}

std::shared_future<apps::nbody::NBodyProfile> PhaseAStore::nbody(
    const apps::nbody::NBodyNumerics& key) {
  return claim(nbody_, key,
               [&] { return apps::nbody::numerics(key, &board_); });
}

std::size_t PhaseAStore::computations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return computations_;
}

}  // namespace ess::core
