#include "util/fork_join.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace ess::util {
namespace {

// Helpers that work the board until told to stop.
class Helpers {
 public:
  Helpers(ForkJoinBoard& board, int n) : board_(board) {
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back(
          [this] { board_.help_until([this] { return stop_.load(); }); });
    }
  }
  ~Helpers() {
    stop_ = true;
    board_.wake();
    for (auto& t : threads_) t.join();
  }
  Helpers(const Helpers&) = delete;
  Helpers& operator=(const Helpers&) = delete;

 private:
  ForkJoinBoard& board_;
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

TEST(ForkJoinBoard, WithoutHelpersTheCallerRunsEveryBlockOnce) {
  ForkJoinBoard board;
  std::vector<int> runs(100, 0);
  const auto caller = std::this_thread::get_id();
  bool all_on_caller = true;
  board.run(runs.size(), [&](std::size_t b) {
    ++runs[b];
    all_on_caller = all_on_caller && std::this_thread::get_id() == caller;
  });
  for (const int r : runs) EXPECT_EQ(r, 1);
  EXPECT_TRUE(all_on_caller);
  board.run(0, [](std::size_t) { FAIL() << "no block to run"; });
}

TEST(ForkJoinBoard, HelpersTakeBlocksAndRunReturnsAfterAllOfThem) {
  ForkJoinBoard board;
  Helpers helpers(board, 3);
  const auto caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> runs(2000);
  std::atomic<bool> helped{false};
  board.run(runs.size(), [&](std::size_t b) {
    if (std::this_thread::get_id() != caller) helped = true;
    // The caller takes block 0 first and holds it until a helper has run
    // a block, so the helpers are seen to take part.
    if (b == 0) {
      while (!helped) std::this_thread::yield();
    }
    runs[b].fetch_add(1);
  });
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
  EXPECT_TRUE(helped);
}

TEST(ForkJoinBoard, ARunWhileTheBoardIsBusyRunsOnItsCaller) {
  ForkJoinBoard board;
  Helpers helpers(board, 2);
  std::atomic<int> inner{0};
  std::atomic<int> outer{0};
  board.run(8, [&](std::size_t) {
    const auto me = std::this_thread::get_id();
    bool all_on_me = true;
    board.run(4, [&](std::size_t) {
      all_on_me = all_on_me && std::this_thread::get_id() == me;
      inner.fetch_add(1);
    });
    EXPECT_TRUE(all_on_me);
    outer.fetch_add(1);
  });
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 32);
}

TEST(ForkJoinBoard, HelpUntilReturnsOnceDoneAndWoken) {
  ForkJoinBoard board;
  std::atomic<bool> done{false};
  std::thread waiter([&] { board.help_until([&] { return done.load(); }); });
  done = true;
  board.wake();
  waiter.join();
  // Already done: returns at once.
  board.help_until([] { return true; });
}

}  // namespace
}  // namespace ess::util
