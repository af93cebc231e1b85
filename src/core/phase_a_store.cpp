#include "core/phase_a_store.hpp"

#include <exception>

namespace ess::core {

template <typename Key, typename Profile>
std::shared_future<Profile> PhaseAStore::claim(Entries<Key, Profile>& entries,
                                               const Key& key) {
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
  // Outside the lock, so claims of other keys go ahead meanwhile. The
  // numerics are found by argument-dependent lookup in the key's app.
  try {
    promise.set_value(numerics(key));
  } catch (...) {
    promise.set_exception(std::current_exception());
  }
  return future;
}

std::shared_future<apps::ppm::PpmProfile> PhaseAStore::ppm(
    const apps::ppm::PpmNumerics& key) {
  return claim(ppm_, key);
}

std::shared_future<apps::wavelet::WaveletProfile> PhaseAStore::wavelet(
    const apps::wavelet::WaveletNumerics& key) {
  return claim(wavelet_, key);
}

std::shared_future<apps::nbody::NBodyProfile> PhaseAStore::nbody(
    const apps::nbody::NBodyNumerics& key) {
  return claim(nbody_, key);
}

std::size_t PhaseAStore::computations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return computations_;
}

}  // namespace ess::core
