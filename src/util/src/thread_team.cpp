#include "parowl/util/thread_team.hpp"

#include <algorithm>
#include <atomic>

namespace parowl::util {

ThreadTeam::ThreadTeam(unsigned size)
    : size_(std::max(1u, size)), start_(size_), finish_(size_) {
  threads_.reserve(size_ - 1);
  for (unsigned member = 1; member < size_; ++member) {
    threads_.emplace_back([this, member] {
      while (true) {
        start_.arrive_and_wait();
        if (done_) {
          return;
        }
        call(member);
        finish_.arrive_and_wait();
      }
    });
  }
}

ThreadTeam::~ThreadTeam() {
  if (!threads_.empty()) {
    done_ = true;
    start_.arrive_and_wait();
  }
  // jthread destructors join.
}

void ThreadTeam::call(unsigned member) {
  try {
    (*job_)(member);
  } catch (...) {
    const std::scoped_lock lock(error_mutex_);
    if (!error_) {
      error_ = std::current_exception();
    }
  }
}

void ThreadTeam::run(const std::function<void(unsigned)>& job) {
  if (threads_.empty()) {
    job(0);
    return;
  }
  job_ = &job;
  start_.arrive_and_wait();
  call(0);
  finish_.arrive_and_wait();
  job_ = nullptr;
  if (error_) {
    std::exception_ptr error;
    std::swap(error, error_);
    std::rethrow_exception(error);
  }
}

void ThreadTeam::for_each(std::size_t n,
                          const std::function<void(std::size_t)>& task) {
  if (threads_.empty() || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) {
      task(i);
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  run([&](unsigned) {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      task(i);
    }
  });
}

}  // namespace parowl::util
