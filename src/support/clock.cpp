#include "jhpc/support/clock.hpp"

#include <ctime>

#include <atomic>
#include <thread>

namespace jhpc {
namespace {

// Calibration for burn_ns: iterations of the no-op loop per nanosecond
// of THREAD CPU TIME (not wall time — on a loaded machine wall-time
// calibration would be skewed by preemption). Computed once, lazily.
double calibrate_iters_per_ns() {
  constexpr std::int64_t kIters = 2'000'000;
  volatile std::uint64_t sink = 0;
  const std::int64_t t0 = thread_cpu_ns();
  for (std::int64_t i = 0; i < kIters; ++i) sink = sink + 1;
  const std::int64_t dt = thread_cpu_ns() - t0;
  if (dt <= 0) return 1.0;
  return static_cast<double>(kIters) / static_cast<double>(dt);
}

double iters_per_ns() {
  static const double v = calibrate_iters_per_ns();
  return v;
}

// Burns at least this long stop on the thread CPU clock instead: they
// can afford its reads (a few hundred ns each), and they must not inherit
// the skew of the one calibration sample, which load during that sample
// distorts for the whole process. Shorter burns — the default 400 ns JNI
// crossing, its 40 ns handle check, small direct allocations — keep the
// calibrated loop, so the per-call costs they model do not move.
constexpr std::int64_t kClockedBurnNs = 10'000;

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t wait_until_ns(std::int64_t deadline_ns) {
  constexpr std::int64_t kSpinThresholdNs = 50'000;
  std::int64_t now = now_ns();
  // Park for the bulk of a long wait, leaving a spin margin at the end.
  while (deadline_ns - now > kSpinThresholdNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinThresholdNs));
    now = now_ns();
  }
  while (now < deadline_ns) {
    std::this_thread::yield();
    now = now_ns();
  }
  return now;
}

void burn_ns(std::int64_t ns) {
  if (ns <= 0) return;
  volatile std::uint64_t sink = 0;
  if (ns >= kClockedBurnNs) {
    const std::int64_t end = thread_cpu_ns() + ns;
    while (thread_cpu_ns() < end) {
      for (int i = 0; i < 64; ++i) sink = sink + 1;
    }
    return;
  }
  const auto iters =
      static_cast<std::int64_t>(static_cast<double>(ns) * iters_per_ns());
  for (std::int64_t i = 0; i < iters; ++i) sink = sink + 1;
}

}  // namespace jhpc
