#pragma once

#include <barrier>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace parowl::util {

/// A fixed team of threads that runs one fork-join job at a time.
///
/// The calling thread is member 0, so a team of size n spawns n - 1
/// threads, once, at construction; between jobs they sleep on a barrier.
/// The forward engine keeps one team for a whole closure (matching and the
/// round-barrier insert both run on it) and the parallel ingest keeps one
/// for its parse and merge stages, so no stage creates threads of its own.
/// run() must only be called from the thread that constructed the team.
class ThreadTeam {
 public:
  /// `size` members; 0 counts as 1 (no threads spawned).
  explicit ThreadTeam(unsigned size);
  ~ThreadTeam();
  ThreadTeam(const ThreadTeam&) = delete;
  ThreadTeam& operator=(const ThreadTeam&) = delete;

  [[nodiscard]] unsigned size() const { return size_; }

  /// Call `job(member)` on every member concurrently; returns once all
  /// calls have returned.  If any call throws, the first exception caught
  /// is rethrown here after every member has finished.
  void run(const std::function<void(unsigned member)>& job);

  /// Call `task(i)` for every i in [0, n), handing indices out in
  /// increasing order to whichever member is free.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& task);

 private:
  /// Run the current job as `member`, recording what it throws.
  void call(unsigned member);

  unsigned size_;
  const std::function<void(unsigned)>* job_ = nullptr;
  bool done_ = false;
  std::mutex error_mutex_;
  std::exception_ptr error_;  // first exception thrown by the current job
  std::barrier<> start_;
  std::barrier<> finish_;
  std::vector<std::jthread> threads_;  // last: joined before the barriers go
};

}  // namespace parowl::util
