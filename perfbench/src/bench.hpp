// Shared pieces of the perfbench binary: run arguments, the per-phase
// measurement record every workload fills, and the workload table.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "jhpc/minimpi/universe.hpp"
#include "jhpc/support/clock.hpp"
#include "port.hpp"
#include "trace.hpp"

namespace pb {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string record;  // optional: full metric record (JSON)
  std::string spans;   // optional: kept spans of a traced run (JSON)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one measured phase of a workload's closed loop produced. Rank
/// threads fill their own Phase; they are merged after the join.
struct Phase {
  /// Latency samples (ns) of the workload's unit op, per op class: one
  /// series at one size or collective kind. Classes are summarised
  /// separately and combined by geometric mean, because a median taken
  /// over a pool of several distinct distributions lands between their
  /// modes and jumps when their proportions shift.
  std::map<int, std::vector<double>> op_ns;
  /// Median op time of each run of up to kChunkOps consecutive samples of
  /// a block (or time slice), per class: merging a block's phase adds
  /// them.
  std::map<int, std::vector<double>> chunk_p50;
  static constexpr std::size_t kChunkOps = 250;
  struct Tput {
    double ops = 0;
    double ns = 0;
  };
  /// Throughput ops completed and the wall time they took, per class.
  std::map<int, Tput> tput;
  /// Throughput samples (ops/s) per class, each over a stretch of the
  /// loop (a few stream windows, a block of solves, a service slice).
  std::map<int, std::vector<double>> rate_samples;
  double payload_bytes = 0;   // payload moved by the throughput ops
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Rank threads over their timed loops.
  double rank_cpu_ns = 0;
  double rank_wall_ns = 0;
  std::uint64_t rank_ops = 0;
  // Layer counters.
  std::uint64_t jvm_ops = 0;  // ops run by ranks that own a JVM
  std::uint64_t gc_collections = 0;
  std::uint64_t gc_alloc_bytes = 0;
  std::uint64_t pool_requests = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t slab_hits = 0;
  std::uint64_t slab_misses = 0;
  // Service counters.
  double queue_wait_ns = 0;
  double run_ns = 0;
  std::uint64_t jobs = 0;
  std::uint64_t universes_created = 0;
  std::uint64_t universes_reused = 0;
  std::uint64_t rejected = 0;
  // Solver.
  std::uint64_t iterations = 0;

  void add_op(int cls, double ns) { op_ns[cls].push_back(ns); }
  void add_rate(int cls, double ops, double ns) {
    tput[cls].ops += ops;
    tput[cls].ns += ns;
    if (ns > 0) rate_samples[cls].push_back(ops / ns * 1e9);
  }
  /// Geometric mean over classes of each class's p-th percentile over
  /// all its samples.
  double op_percentile(double p) const;
  /// Typical op time: per class, the tenth percentile of the chunk
  /// medians; geometric mean over classes. Other tenants of a shared host
  /// slow whole stretches of a run (seconds at a time) and only ever add
  /// time, so the quietest tenth of the chunks is what repeats from run
  /// to run; a change to the code moves every chunk.
  double op_p50_typical() const;
  /// Typical throughput: per class, the ninetieth percentile of the rate
  /// samples; geometric mean over classes.
  double rate_per_s() const;
  std::size_t op_samples() const;
  Tput tput_total() const;

  /// Add `o`, the phase of one block (or one rank of it), into this one.
  void merge(const Phase& o);
};

/// Times one rank's timed loop: CPU vs wall, and the JVM/pool counters.
class RankLoop {
 public:
  explicit RankLoop(Port& port);
  void end(Phase& ph, std::uint64_t ops);

 private:
  Port& port_;
  std::int64_t cpu0_;
  std::int64_t wall0_;
  std::uint64_t gc0_ = 0;
  std::uint64_t alloc0_ = 0;
  std::uint64_t req0_ = 0;
  std::uint64_t hit0_ = 0;
};

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);  // q in [0, 1]

/// The four OMB-J series of the paper.
const std::vector<Series>& paper_series();
/// Collective suite a binding series runs on (native: given explicitly).
int suite_of(Series s);

/// Deterministic RNG for one purpose of one run.
std::mt19937_64 rng_for(std::uint64_t seed, std::uint64_t salt);

/// Span aggregates of the three traced parts of a traced run.
struct TraceData {
  std::map<std::uint32_t, Acc> traced;  // the bindings' closed loop
  std::map<std::uint32_t, Acc> native;  // the same loop on the native series
  std::map<std::uint32_t, Acc> probes;  // the layer probes
};

/// Mean duration of the spans of `agg` that match `pred`; 0 when none.
double mean_ns(const std::map<std::uint32_t, Acc>& agg,
               const std::function<bool(const Key&)>& pred);

/// A workload: how to set it up, how to run its closed loop for a time,
/// and what it reports.
struct Workload {
  std::string name;
  /// One complete set-up from nothing to "first timed op could start";
  /// returns its wall seconds.
  std::function<double(int rep)> setup_once;
  /// One-off preparation before measuring (reference solutions).
  std::function<void()> prepare;
  /// Run the closed loop for `seconds`, adding to `ph`. `native` runs the
  /// native series in place of the bindings (traced runs only); `salt`
  /// makes each call's block order and payloads its own.
  std::function<void(double seconds, bool native, std::uint64_t salt, Phase& ph)>
      measure;
  /// Universe configuration and payload sizes for the layer probes.
  minimpi::UniverseConfig probe_config;
  std::vector<std::size_t> sizes;
  /// The workload's own named end-to-end metrics from an untraced phase.
  std::function<std::vector<Metric>(const Phase& ph)> named_metrics;
  /// Workload-specific per-layer metrics of a traced run.
  std::function<std::vector<Metric>(const Phase& untraced,
                                    const TraceData& td)>
      named_layers;
};

Workload make_p2p_small(const Args& args);
Workload make_bulk(const Args& args);
Workload make_cg_app(const Args& args);
Workload make_service_churn(const Args& args);

}  // namespace pb
