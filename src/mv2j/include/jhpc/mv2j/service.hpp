// Service mode of the Java bindings: submit/await jobs against a resident
// jhpcd fleet instead of one-shot run() launches.
//
// The Java-side analogue is a long-lived scheduler JVM that keeps the
// native library initialized and accepts job submissions; each job
// still sees the ordinary per-rank Env of its profile (mv2j::Service
// here, ompij::Service in jhpc/ompij/service.hpp). See docs/SERVICE.md.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "jhpc/jhpcd/jhpcd.hpp"
#include "jhpc/mv2j/env.hpp"

namespace jhpc::mv2j {

/// One service submission: a diagnostic name, the profile's ordinary
/// RunOptions, and the jhpcd scheduling attributes.
template <class Options>
struct BasicServiceJobOptions {
  std::string name;
  Options run{};
  jhpcd::JobClass job_class = jhpcd::JobClass::kLatency;
  int priority = 0;
  jhpcd::JobQuota quota{};
};

/// A resident scheduler for one profile's jobs. Thin facade over
/// jhpcd::JobManager that wraps each submission's rank body in the
/// profile's Env, exactly as run() does for a one-shot job.
template <class EnvT, class Options>
class BasicService {
 public:
  using JobOptions = BasicServiceJobOptions<Options>;

  explicit BasicService(jhpcd::ServiceConfig config = jhpcd::ServiceConfig{})
      : manager_(config) {}

  /// Queue a job; same admission/quota errors as JobManager::submit.
  jhpcd::JobHandle submit(const JobOptions& options,
                          std::function<void(EnvT&)> rank_main) {
    JHPC_REQUIRE(static_cast<bool>(rank_main), "rank_main must be callable");
    // The options outlive the submission call but not the job; share them
    // with every rank thread of the (possibly much later) run.
    auto opts = std::make_shared<Options>(options.run);
    auto body =
        std::make_shared<std::function<void(EnvT&)>>(std::move(rank_main));
    jhpcd::JobSpec spec;
    spec.name = options.name;
    spec.config = opts->universe_config();
    spec.job_class = options.job_class;
    spec.priority = options.priority;
    spec.quota = options.quota;
    spec.rank_main = [opts, body](minimpi::Comm& world) {
      EnvT env(world, *opts);
      (*body)(env);
    };
    return manager_.submit(std::move(spec));
  }

  /// Convenience: default scheduling attributes.
  jhpcd::JobHandle submit(const std::string& name, const Options& options,
                          std::function<void(EnvT&)> rank_main) {
    JobOptions job;
    job.name = name;
    job.run = options;
    return submit(job, std::move(rank_main));
  }

  void drain() { manager_.drain(); }
  void shutdown() { manager_.shutdown(); }
  jhpcd::ServiceStats stats() const { return manager_.stats(); }

  jhpcd::JobManager& manager() { return manager_; }
  const jhpcd::JobManager& manager() const { return manager_; }

 private:
  jhpcd::JobManager manager_;
};

/// A resident MVAPICH2-J scheduler.
using ServiceJobOptions = BasicServiceJobOptions<RunOptions>;
using Service = BasicService<Env, RunOptions>;

}  // namespace jhpc::mv2j
