// ForkJoinBoard: one thread posts a batch of independent blocks, and
// threads that would otherwise sit blocked help work them.
//
// The poster works blocks itself and then waits only for blocks a helper
// has already taken, so a batch never waits for a helper to turn up: with
// none, every block runs on the posting thread. A thread that has to wait
// for something anyway (a future another thread fulfils) calls
// help_until() instead of blocking and works whatever is posted meanwhile.
// The board starts no thread.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>

namespace ess::util {

class ForkJoinBoard {
 public:
  ForkJoinBoard() = default;
  ForkJoinBoard(const ForkJoinBoard&) = delete;
  ForkJoinBoard& operator=(const ForkJoinBoard&) = delete;

  /// Runs block(0) … block(blocks - 1), each once, and returns when all
  /// have finished. Blocks must not throw. While another run() has the
  /// board, the caller runs all of its blocks itself.
  void run(std::size_t blocks, const std::function<void(std::size_t)>& block);

  /// Works posted blocks until done() holds, sleeping while none is
  /// posted. done() is called under the board's lock, so it must be cheap
  /// and must not use the board; whoever makes it true calls wake() after.
  void help_until(const std::function<bool()>& done);

  /// Makes help_until() callers check their done() again.
  void wake();

 private:
  std::mutex mu_;
  std::condition_variable posted_cv_;  // helpers: a batch posted, or wake()
  std::condition_variable joined_cv_;  // the poster: a helper's block ended
  // The posted batch (null when none) and its progress. `helping_` counts
  // blocks helpers have taken and not finished.
  const std::function<void(std::size_t)>* block_ = nullptr;
  std::size_t blocks_ = 0;
  std::size_t next_ = 0;
  std::size_t helping_ = 0;
};

}  // namespace ess::util
