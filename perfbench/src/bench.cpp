#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pb {

void Phase::merge(const Phase& o) {
  for (const auto& [cls, v] : o.op_ns) {
    op_ns[cls].insert(op_ns[cls].end(), v.begin(), v.end());
    for (std::size_t i = 0; i < v.size(); i += kChunkOps) {
      const auto first = v.begin() + static_cast<std::ptrdiff_t>(i);
      const auto last = v.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(v.size(), i + kChunkOps));
      chunk_p50[cls].push_back(median(std::vector<double>(first, last)));
    }
  }
  for (const auto& [cls, v] : o.chunk_p50)
    chunk_p50[cls].insert(chunk_p50[cls].end(), v.begin(), v.end());
  for (const auto& [cls, t] : o.tput) {
    tput[cls].ops += t.ops;
    tput[cls].ns += t.ns;
  }
  for (const auto& [cls, v] : o.rate_samples)
    rate_samples[cls].insert(rate_samples[cls].end(), v.begin(), v.end());
  payload_bytes += o.payload_bytes;
  attempted += o.attempted;
  failed += o.failed;
  rank_cpu_ns += o.rank_cpu_ns;
  rank_wall_ns += o.rank_wall_ns;
  rank_ops += o.rank_ops;
  jvm_ops += o.jvm_ops;
  gc_collections += o.gc_collections;
  gc_alloc_bytes += o.gc_alloc_bytes;
  pool_requests += o.pool_requests;
  pool_hits += o.pool_hits;
  slab_hits += o.slab_hits;
  slab_misses += o.slab_misses;
  queue_wait_ns += o.queue_wait_ns;
  run_ns += o.run_ns;
  jobs += o.jobs;
  universes_created += o.universes_created;
  universes_reused += o.universes_reused;
  rejected += o.rejected;
  iterations += o.iterations;
}

double Phase::op_percentile(double p) const {
  double log_sum = 0;
  int n = 0;
  for (const auto& [cls, v] : op_ns) {
    if (v.empty()) continue;
    log_sum += std::log(quantile(v, p / 100));
    ++n;
  }
  return n ? std::exp(log_sum / n) : std::numeric_limits<double>::quiet_NaN();
}

namespace {

/// Geometric mean over classes of the q-quantile of each class's values.
double geomean_of_quantile(const std::map<int, std::vector<double>>& by_class,
                           double q) {
  double log_sum = 0;
  int n = 0;
  for (const auto& [cls, v] : by_class) {
    if (v.empty()) continue;
    log_sum += std::log(quantile(v, q));
    ++n;
  }
  return n ? std::exp(log_sum / n) : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

double Phase::op_p50_typical() const { return geomean_of_quantile(chunk_p50, 0.1); }

double Phase::rate_per_s() const { return geomean_of_quantile(rate_samples, 0.9); }

std::size_t Phase::op_samples() const {
  std::size_t n = 0;
  for (const auto& [cls, v] : op_ns) n += v.size();
  return n;
}

Phase::Tput Phase::tput_total() const {
  Tput sum;
  for (const auto& [cls, t] : tput) {
    sum.ops += t.ops;
    sum.ns += t.ns;
  }
  return sum;
}

RankLoop::RankLoop(Port& port)
    : port_(port), cpu0_(jhpc::thread_cpu_ns()), wall0_(jhpc::now_ns()) {
  if (minijvm::Jvm* jvm = port_.jvm()) {
    gc0_ = jvm->stats().collections;
    alloc0_ = jvm->stats().allocated_bytes;
  }
  if (mpjbuf::BufferFactory* pool = port_.pool()) {
    req0_ = pool->stats().requests;
    hit0_ = pool->stats().pool_hits;
  }
}

void RankLoop::end(Phase& ph, std::uint64_t ops) {
  ph.rank_cpu_ns += static_cast<double>(jhpc::thread_cpu_ns() - cpu0_);
  ph.rank_wall_ns += static_cast<double>(jhpc::now_ns() - wall0_);
  ph.rank_ops += ops;
  if (minijvm::Jvm* jvm = port_.jvm()) {
    ph.jvm_ops += ops;
    ph.gc_collections += jvm->stats().collections - gc0_;
    ph.gc_alloc_bytes += jvm->stats().allocated_bytes - alloc0_;
  }
  if (mpjbuf::BufferFactory* pool = port_.pool()) {
    ph.pool_requests += pool->stats().requests - req0_;
    ph.pool_hits += pool->stats().pool_hits - hit0_;
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

const std::vector<Series>& paper_series() {
  static const std::vector<Series> kSeries = {
      {Lib::kMv2j, false}, {Lib::kMv2j, true},
      {Lib::kOmpij, false}, {Lib::kOmpij, true}};
  return kSeries;
}

int suite_of(Series s) { return s.lib == Lib::kOmpij ? 1 : 0; }

std::mt19937_64 rng_for(std::uint64_t seed, std::uint64_t salt) {
  return std::mt19937_64(mix64(seed) ^ mix64(salt + 0x5eed));
}

double mean_ns(const std::map<std::uint32_t, Acc>& agg,
               const std::function<bool(const Key&)>& pred) {
  std::uint64_t calls = 0;
  std::int64_t dur = 0;
  for (const auto& [k, a] : agg) {
    if (!pred(Key::unpack(k))) continue;
    calls += a.calls;
    dur += a.dur_ns;
  }
  return calls ? static_cast<double>(dur) / static_cast<double>(calls)
               : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace pb
