#include "util/fork_join.hpp"

namespace ess::util {

void ForkJoinBoard::run(std::size_t blocks,
                        const std::function<void(std::size_t)>& block) {
  std::unique_lock<std::mutex> lock(mu_);
  if (block_ != nullptr) {
    lock.unlock();
    for (std::size_t b = 0; b < blocks; ++b) block(b);
    return;
  }
  block_ = &block;
  blocks_ = blocks;
  next_ = 0;
  posted_cv_.notify_all();
  while (next_ < blocks_) {
    const std::size_t b = next_++;
    lock.unlock();
    block(b);
    lock.lock();
  }
  // `block` lives on this frame: keep it until every helper is done.
  joined_cv_.wait(lock, [this] { return helping_ == 0; });
  block_ = nullptr;
}

void ForkJoinBoard::help_until(const std::function<bool()>& done) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    posted_cv_.wait(lock, [&] {
      return done() || (block_ != nullptr && next_ < blocks_);
    });
    if (done()) return;
    const auto* block = block_;
    const std::size_t b = next_++;
    ++helping_;
    lock.unlock();
    (*block)(b);
    lock.lock();
    if (--helping_ == 0) joined_cv_.notify_one();
  }
}

void ForkJoinBoard::wake() {
  std::lock_guard<std::mutex> lock(mu_);
  posted_cv_.notify_all();
}

}  // namespace ess::util
