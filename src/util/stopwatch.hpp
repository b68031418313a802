// Monotonic time: the shared seconds clock and a stopwatch for the
// real-execution benches.
#pragma once

#include <chrono>

namespace parcl::util {

/// Seconds on the steady (CLOCK_MONOTONIC) clock: the one timebase of the
/// executors, the pilot channel and the server loop.
inline double monotonic_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Stopwatch {
 public:
  Stopwatch() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double elapsed_ms() const noexcept { return elapsed_seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace parcl::util
