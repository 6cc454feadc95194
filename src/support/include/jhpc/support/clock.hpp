// Monotonic time helpers used by the transport, the network model and the
// benchmark drivers. Everything in jhpc measures time in integer
// nanoseconds on std::chrono::steady_clock so values are directly
// comparable across modules.
#pragma once

#include <chrono>
#include <cstdint>

namespace jhpc {

/// Nanoseconds since an arbitrary (per-process) steady epoch.
std::int64_t now_ns();

/// CPU time consumed by the CALLING THREAD, in ns
/// (CLOCK_THREAD_CPUTIME_ID). Unlike wall time this excludes the time the
/// thread spent descheduled or parked — the basis of the virtual-time
/// passthrough that lets an oversubscribed single-core box simulate ranks
/// that really run in parallel.
std::int64_t thread_cpu_ns();

/// Sleep-or-spin until `deadline_ns` (same epoch as now_ns()).
///
/// Short waits (< 50 us) spin to keep injected network delays accurate;
/// long waits park the thread so heavily oversubscribed rank counts work
/// on small machines. Returns the time observed on exit.
std::int64_t wait_until_ns(std::int64_t deadline_ns);

/// Busy-work that consumes roughly `ns` nanoseconds of thread CPU time:
/// a calibrated loop for short burns, a loop on the thread CPU clock for
/// burns of 10 us and more.
///
/// Used to model fixed CPU-side costs (e.g. the JNI crossing) without
/// descheduling the thread; unlike nanosleep it models work, not waiting.
void burn_ns(std::int64_t ns);

/// Simple scope timer: elapsed() gives ns since construction or reset().
class StopWatch {
 public:
  StopWatch() : start_(now_ns()) {}
  void reset() { start_ = now_ns(); }
  std::int64_t elapsed_ns() const { return now_ns() - start_; }
  double elapsed_us() const { return static_cast<double>(elapsed_ns()) / 1e3; }

 private:
  std::int64_t start_;
};

}  // namespace jhpc
