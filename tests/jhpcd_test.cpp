// jhpcd scheduler suite: admission control, backpressure, quotas,
// fairness, fleet sharing and tenant fault isolation. The stress cases
// overlap healthy tenants with fault-injected ones and assert that
// failures never leak across job boundaries and that fleet memory
// stays under the depot ceiling (the `service` label runs this under
// TSan and ASan in CI).
#include "jhpc/jhpcd/jhpcd.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "jhpc/minimpi/minimpi.hpp"
#include "jhpc/support/clock.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::jhpcd {
namespace {

using minimpi::Comm;

/// A world-2 pingpong of `iters` small messages.
JobSpec pingpong_job(const std::string& name, int iters = 4) {
  JobSpec spec;
  spec.name = name;
  spec.config.world_size = 2;
  spec.rank_main = [iters](Comm& world) {
    std::int32_t x = 0;
    for (int i = 0; i < iters; ++i) {
      if (world.rank() == 0) {
        world.send(&x, sizeof(x), 1, 7);
        world.recv(&x, sizeof(x), 1, 7);
      } else {
        world.recv(&x, sizeof(x), 0, 7);
        world.send(&x, sizeof(x), 0, 7);
      }
    }
  };
  return spec;
}

/// A job that spins until `gate` opens, then pingpongs once. Used to
/// wedge a worker so submissions pile up behind it.
JobSpec blocker_job(std::atomic<bool>* gate) {
  JobSpec spec;
  spec.name = "blocker";
  spec.config.world_size = 2;
  spec.rank_main = [gate](Comm& world) {
    if (world.rank() == 0) {
      while (!gate->load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
    }
    world.barrier();
  };
  return spec;
}

TEST(JhpcdTest, CompletesSimpleJobs) {
  ServiceConfig cfg;
  cfg.workers = 2;
  JobManager mgr(cfg);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(mgr.submit(pingpong_job("pp" + std::to_string(i))));
  }
  for (auto& h : handles) {
    const JobResult r = h.await();
    EXPECT_EQ(r.state, JobState::kCompleted);
    EXPECT_EQ(r.error, nullptr);
    EXPECT_GE(r.queue_wait_ns, 0);
    EXPECT_GT(r.run_ns, 0);
  }
  const ServiceStats s = mgr.stats();
  EXPECT_EQ(s.admitted, 8u);
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.queued, 0u);
  EXPECT_EQ(s.active, 0u);
}

TEST(JhpcdTest, RanksQuotaRejectsAtSubmit) {
  JobManager mgr;
  JobSpec spec = pingpong_job("fat");
  spec.config.world_size = 4;
  spec.quota.max_ranks = 2;
  EXPECT_THROW(mgr.submit(spec), QuotaExceededError);

  ServiceConfig tight;
  tight.max_ranks_per_job = 2;
  JobManager small(tight);
  JobSpec wide = pingpong_job("wide");
  wide.config.world_size = 3;
  EXPECT_THROW(small.submit(wide), QuotaExceededError);
  // The rejection is synchronous: nothing was admitted.
  EXPECT_EQ(small.stats().admitted, 0u);
}

TEST(JhpcdTest, BackpressureRejectsWithGrowingRetryHint) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  JobManager mgr(cfg);

  std::atomic<bool> gate{false};
  JobHandle blocker = mgr.submit(blocker_job(&gate));
  // Wait until the blocker occupies the worker, so the queue is truly
  // empty before we fill it.
  while (mgr.stats().active == 0) std::this_thread::yield();

  JobHandle q1 = mgr.submit(pingpong_job("q1"));
  JobHandle q2 = mgr.submit(pingpong_job("q2"));

  std::int64_t first_hint = 0;
  try {
    mgr.submit(pingpong_job("overflow1"));
    FAIL() << "expected AdmissionRejectedError";
  } catch (const AdmissionRejectedError& e) {
    first_hint = e.retry_after_ns();
    EXPECT_GT(first_hint, 0);
    EXPECT_EQ(e.code(), ErrorCode::kAdmissionRejected);
  }
  try {
    mgr.submit(pingpong_job("overflow2"));
    FAIL() << "expected AdmissionRejectedError";
  } catch (const AdmissionRejectedError& e) {
    // Consecutive rejections back off exponentially.
    EXPECT_GT(e.retry_after_ns(), first_hint);
  }

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.await().state, JobState::kCompleted);
  EXPECT_EQ(q1.await().state, JobState::kCompleted);
  EXPECT_EQ(q2.await().state, JobState::kCompleted);

  // A successful admission resets the backoff.
  JobHandle after = mgr.submit(pingpong_job("after"));
  EXPECT_EQ(after.await().state, JobState::kCompleted);
  const ServiceStats s = mgr.stats();
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.shed, 0u);
}

TEST(JhpcdTest, ShedsLowestPriorityQueuedJobFirst) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  JobManager mgr(cfg);

  std::atomic<bool> gate{false};
  JobHandle blocker = mgr.submit(blocker_job(&gate));
  while (mgr.stats().active == 0) std::this_thread::yield();

  JobSpec low = pingpong_job("low");
  low.priority = 0;
  JobSpec mid = pingpong_job("mid");
  mid.priority = 3;
  JobHandle h_low = mgr.submit(low);
  JobHandle h_mid = mgr.submit(mid);

  // An equal-priority submission is rejected, not admitted by eviction.
  JobSpec equal = pingpong_job("equal");
  equal.priority = 0;
  EXPECT_THROW(mgr.submit(equal), AdmissionRejectedError);

  // A higher-priority submission sheds the lowest-priority queued job.
  JobSpec high = pingpong_job("high");
  high.priority = 5;
  JobHandle h_high = mgr.submit(high);

  const JobResult shed = h_low.await();
  EXPECT_EQ(shed.state, JobState::kShed);
  EXPECT_EQ(shed.code, ErrorCode::kAdmissionRejected);
  ASSERT_NE(shed.error, nullptr);
  EXPECT_THROW(std::rethrow_exception(shed.error), AdmissionRejectedError);

  gate.store(true, std::memory_order_release);
  EXPECT_EQ(blocker.await().state, JobState::kCompleted);
  EXPECT_EQ(h_mid.await().state, JobState::kCompleted);
  EXPECT_EQ(h_high.await().state, JobState::kCompleted);
  const ServiceStats s = mgr.stats();
  EXPECT_EQ(s.shed, 1u);
  EXPECT_GE(s.rejected, 2u);  // the shed victim plus the equal-priority one
}

TEST(JhpcdTest, WallClockQuotaTripsOnlyTheOffender) {
  ServiceConfig cfg;
  cfg.workers = 2;
  JobManager mgr(cfg);

  JobSpec hog = pingpong_job("hog");
  hog.quota.max_wall_ns = 10'000'000;  // 10 ms
  hog.rank_main = [](Comm& world) {
    const std::int64_t start = now_ns();
    std::int32_t x = 0;
    // Pingpong until well past the budget; the watchdog's kill unwinds
    // us long before the loop bound.
    while (now_ns() - start < 2'000'000'000) {
      if (world.rank() == 0) {
        world.send(&x, sizeof(x), 1, 7);
        world.recv(&x, sizeof(x), 1, 7);
      } else {
        world.recv(&x, sizeof(x), 0, 7);
        world.send(&x, sizeof(x), 0, 7);
      }
    }
  };
  JobHandle h_hog = mgr.submit(hog);
  JobHandle h_ok = mgr.submit(pingpong_job("bystander", /*iters=*/64));

  const JobResult r_hog = h_hog.await();
  EXPECT_EQ(r_hog.state, JobState::kFailed);
  EXPECT_EQ(r_hog.code, ErrorCode::kQuotaExceeded);
  ASSERT_NE(r_hog.error, nullptr);
  EXPECT_THROW(std::rethrow_exception(r_hog.error), QuotaExceededError);
  EXPECT_NE(r_hog.error_what.find("wall-clock"), std::string::npos);

  // The co-resident tenant never observes the neighbor's kill.
  EXPECT_EQ(h_ok.await().state, JobState::kCompleted);
  EXPECT_EQ(mgr.stats().quota_trips, 1u);
}

TEST(JhpcdTest, SlabQuotaTrips) {
  ServiceConfig cfg;
  cfg.workers = 1;
  JobManager mgr(cfg);

  JobSpec spec;
  spec.name = "slab-hog";
  spec.config.world_size = 2;
  spec.quota.max_slab_bytes = 1;  // any retained slab trips
  spec.rank_main = [](Comm& world) {
    const std::int64_t start = now_ns();
    std::vector<std::byte> buf(8192);
    const int peer = 1 - world.rank();
    // An eager message that waits in the unexpected queue carries its
    // payload in a transport slab, which the receiver's free list keeps
    // after the receive. The probe before each receive makes every
    // message wait there, and the replies use a smaller size class, so
    // neither rank draws the other's slabs back out: retained_bytes
    // stays above the (absurdly low) quota from the first exchange on.
    // Only rank 0 reads the clock and sends the go/stop flag in the
    // payload: with a deadline each, one rank could leave the loop while
    // the other waits for its message.
    const std::size_t bytes = world.rank() == 0 ? buf.size() : buf.size() / 2;
    bool more = true;
    while (more) {
      if (world.rank() == 0) {
        more = now_ns() - start < 2'000'000'000;
        buf[0] = std::byte{more};
        world.send(buf.data(), bytes, peer, 9);
      }
      minimpi::Status st;
      while (!world.iprobe(peer, 9, &st)) std::this_thread::yield();
      world.recv(buf.data(), buf.size(), peer, 9);
      if (world.rank() == 1) {
        more = buf[0] != std::byte{0};
        world.send(buf.data(), bytes, peer, 9);
      }
    }
  };
  const JobResult r = mgr.submit(spec).await();
  EXPECT_EQ(r.state, JobState::kFailed);
  EXPECT_EQ(r.code, ErrorCode::kQuotaExceeded);
  EXPECT_NE(r.error_what.find("slab"), std::string::npos);
}

TEST(JhpcdTest, OutstandingMessageQuotaTrips) {
  ServiceConfig cfg;
  cfg.workers = 1;
  JobManager mgr(cfg);

  JobSpec spec;
  spec.name = "flooder";
  spec.config.world_size = 2;
  spec.quota.max_outstanding_msgs = 4;
  spec.rank_main = [](Comm& world) {
    std::int32_t x = 0;
    if (world.rank() == 1) {
      // Flood the peer with unexpected eager messages.
      for (int i = 0; i < 64; ++i) world.send(&x, sizeof(x), 0, 11);
    } else {
      // Receive late, so the unexpected queue's high-water mark rises
      // well past the quota before the first recv posts.
      const std::int64_t start = now_ns();
      while (now_ns() - start < 100'000'000) std::this_thread::yield();
    }
    for (int i = 0; world.rank() == 0 && i < 64; ++i) {
      world.recv(&x, sizeof(x), 1, 11);
    }
    world.barrier();
  };
  const JobResult r = mgr.submit(spec).await();
  EXPECT_EQ(r.state, JobState::kFailed);
  EXPECT_EQ(r.code, ErrorCode::kQuotaExceeded);
  EXPECT_NE(r.error_what.find("outstanding"), std::string::npos);
}

// The acceptance stress: a seeded chaos plan keeps killing one
// tenant's ranks while healthy tenants churn through the same fleet,
// with drains interleaved. Chaos failures must surface as typed ULFM
// errors in the chaos tenant only, and fleet memory must stay under
// the depot ceiling throughout.
TEST(JhpcdTest, TenantFaultIsolationUnderChurn) {
  ServiceConfig cfg;
  cfg.workers = 3;
  cfg.depot_max_bytes = 4u << 20;
  JobManager mgr(cfg);

  std::vector<JobHandle> healthy;
  std::vector<JobHandle> chaos;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 6; ++i) {
      healthy.push_back(mgr.submit(
          pingpong_job("healthy" + std::to_string(round * 6 + i), 16)));
    }
    JobSpec bad;
    bad.name = "chaos" + std::to_string(round);
    bad.config.world_size = 4;
    // Seeded fail-stop of rank 2 early in the job, via the ordinary
    // fault plan — the tenant brings its own chaos.
    bad.config.fabric.faults.seed = 42 + static_cast<std::uint64_t>(round);
    bad.config.fabric.faults.kills.push_back({/*rank=*/2, /*at_vns=*/50'000});
    bad.rank_main = [](Comm& world) {
      std::int64_t acc = world.rank();
      for (int i = 0; i < 64; ++i) {
        std::int64_t out = 0;
        world.allreduce(&acc, &out, 1, minimpi::BasicKind::kLong,
                        minimpi::ReduceOp::kSum);
        acc = out;
      }
    };
    chaos.push_back(mgr.submit(bad));
    if (round == 1) mgr.drain();  // overlap a drain with the churn
  }

  for (auto& h : healthy) {
    const JobResult r = h.await();
    EXPECT_EQ(r.state, JobState::kCompleted)
        << r.name << ": " << r.error_what;
  }
  for (auto& h : chaos) {
    const JobResult r = h.await();
    EXPECT_EQ(r.state, JobState::kFailed) << r.name;
    // Which ULFM error wins the race to be recorded first depends on
    // rank scheduling: the direct observer raises RankFailed, while a
    // rank that hits the already-revoked communicator raises
    // CommRevoked. Both are the kill surfacing as a typed error.
    EXPECT_TRUE(r.code == ErrorCode::kRankFailed ||
                r.code == ErrorCode::kCommRevoked)
        << r.error_what;
  }
  mgr.drain();
  const ServiceStats s = mgr.stats();
  EXPECT_EQ(s.completed, healthy.size());
  EXPECT_EQ(s.failed, chaos.size());
  EXPECT_LE(s.depot.hwm_bytes, cfg.depot_max_bytes);
}

TEST(JhpcdTest, BoundedMemorySteadyStateChurn) {
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.pool_capacity = 6;
  cfg.depot_max_bytes = 1u << 20;
  JobManager mgr(cfg);

  constexpr int kJobs = 200;
  std::vector<JobHandle> handles;
  handles.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    JobSpec spec;
    spec.name = "churn" + std::to_string(i);
    spec.config.world_size = 2;
    spec.rank_main = [](Comm& world) {
      std::vector<std::byte> buf(8192);
      if (world.rank() == 0) {
        world.send(buf.data(), buf.size(), 1, 3);
        world.recv(buf.data(), buf.size(), 1, 3);
      } else {
        world.recv(buf.data(), buf.size(), 0, 3);
        world.send(buf.data(), buf.size(), 0, 3);
      }
    };
    handles.push_back(mgr.submit(spec));
    if ((i & 31) == 31) mgr.drain();
  }
  for (auto& h : handles) {
    EXPECT_EQ(h.await().state, JobState::kCompleted);
  }
  const ServiceStats s = mgr.stats();
  EXPECT_EQ(s.completed, static_cast<std::uint64_t>(kJobs));
  // Steady state reuses Universes instead of building one per job...
  EXPECT_GT(s.universes_reused, s.universes_created);
  EXPECT_LE(s.universes_created,
            static_cast<std::uint64_t>(cfg.workers + cfg.pool_capacity));
  // ...and the shared depot never grows past its ceiling.
  EXPECT_LE(s.depot.hwm_bytes, cfg.depot_max_bytes);
  EXPECT_LE(s.depot.retained_bytes, cfg.depot_max_bytes);
}

TEST(JhpcdTest, WeightedRoundRobinFavorsLatencyClass) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  cfg.latency_weight = 3;
  JobManager mgr(cfg);

  std::mutex order_mu;
  std::vector<JobClass> order;
  auto body = [&order_mu, &order](JobClass cls) {
    return [&order_mu, &order, cls](Comm& world) {
      if (world.rank() == 0) {
        std::lock_guard<std::mutex> lk(order_mu);
        order.push_back(cls);
      }
      world.barrier();
    };
  };

  std::atomic<bool> gate{false};
  JobHandle blocker = mgr.submit(blocker_job(&gate));
  while (mgr.stats().active == 0) std::this_thread::yield();

  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    JobSpec spec;
    spec.name = "bw" + std::to_string(i);
    spec.config.world_size = 2;
    spec.job_class = JobClass::kBandwidth;
    spec.rank_main = body(JobClass::kBandwidth);
    handles.push_back(mgr.submit(spec));
  }
  for (int i = 0; i < 4; ++i) {
    JobSpec spec;
    spec.name = "lat" + std::to_string(i);
    spec.config.world_size = 2;
    spec.job_class = JobClass::kLatency;
    spec.rank_main = body(JobClass::kLatency);
    handles.push_back(mgr.submit(spec));
  }

  gate.store(true, std::memory_order_release);
  blocker.await();
  for (auto& h : handles) {
    EXPECT_EQ(h.await().state, JobState::kCompleted);
  }

  ASSERT_EQ(order.size(), 8u);
  // Latency jobs were submitted AFTER every bandwidth job, yet the
  // weighted round-robin dispatches them ahead of the hogs...
  EXPECT_EQ(order.front(), JobClass::kLatency);
  // ...without starving the bandwidth class: some hog runs before the
  // last latency job.
  std::size_t first_bw = order.size(), last_lat = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i] == JobClass::kBandwidth) {
      first_bw = std::min(first_bw, i);
    } else {
      last_lat = i;
    }
  }
  EXPECT_LT(first_bw, last_lat);
}

TEST(JhpcdTest, ServicePvarsAndFlightEvents) {
  ServiceConfig cfg;
  cfg.workers = 1;
  JobManager mgr(cfg);
  JobHandle h = mgr.submit(pingpong_job("observed"));
  EXPECT_EQ(h.await().state, JobState::kCompleted);
  mgr.drain();

  const obs::PvarRegistry& reg = mgr.pvars();
  EXPECT_EQ(reg.total(reg.find("jhpcd.jobs.admitted")), 1);
  EXPECT_EQ(reg.total(reg.find("jhpcd.jobs.completed")), 1);
  EXPECT_EQ(reg.total(reg.find("jhpcd.jobs.failed")), 0);
  EXPECT_GE(reg.total(reg.find("jhpcd.universes.created")), 1);
  // The per-job namespace exists for this job id...
  const std::string prefix = "job." + std::to_string(h.id());
  EXPECT_TRUE(reg.find(prefix + ".queue_wait_ns").valid());
  EXPECT_EQ(reg.total(reg.find(prefix + ".ranks")), 2);
  // ...and the queue-wait histogram recorded the dispatch.
  EXPECT_EQ(reg.read(reg.find("jhpcd.queue.wait.latency"), 0), 1);

  const std::string flight = mgr.flight_report();
  EXPECT_NE(flight.find("job_admit"), std::string::npos);
  EXPECT_NE(flight.find("job_drain"), std::string::npos);
}

TEST(JhpcdTest, PerJobPvarsStopAtRegistryCapacity) {
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.pvar_capacity = 32;  // room for the jhpcd.* base + a few jobs
  JobManager mgr(cfg);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 40; ++i) {
    handles.push_back(mgr.submit(pingpong_job("cap" + std::to_string(i), 1)));
  }
  for (auto& h : handles) {
    EXPECT_EQ(h.await().state, JobState::kCompleted);
  }
  // The registry filled up and registration stopped silently; the
  // aggregates kept counting every job.
  EXPECT_LE(mgr.pvars().size(), cfg.pvar_capacity);
  EXPECT_EQ(mgr.pvars().total(mgr.pvars().find("jhpcd.jobs.completed")), 40);
}

TEST(JhpcdTest, SubmitAfterShutdownIsRejected) {
  JobManager mgr;
  EXPECT_EQ(mgr.submit(pingpong_job("last")).await().state,
            JobState::kCompleted);
  mgr.shutdown();
  try {
    mgr.submit(pingpong_job("late"));
    FAIL() << "expected AdmissionRejectedError";
  } catch (const AdmissionRejectedError& e) {
    EXPECT_EQ(e.retry_after_ns(), 0);  // never retry: we're going away
  }
}

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~EnvGuard() { ::unsetenv(name_); }

 private:
  const char* name_;
};

TEST(JhpcdTest, ServiceConfigEnvValidation) {
  {
    EnvGuard g("JHPC_SVC_WORKERS", "12");
    EXPECT_EQ(ServiceConfig::from_env().workers, 12);
  }
  {
    EnvGuard g("JHPC_SVC_WORKERS", "0");
    EXPECT_THROW(ServiceConfig::from_env(), InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_SVC_QUEUE_CAP", "junk");
    EXPECT_THROW(ServiceConfig::from_env(), InvalidArgumentError);
  }
  {
    EnvGuard g("JHPC_SVC_LATENCY_WEIGHT", "65");
    EXPECT_THROW(ServiceConfig::from_env(), InvalidArgumentError);
  }
  EXPECT_EQ(ServiceConfig::from_env().workers, ServiceConfig{}.workers);
}

}  // namespace
}  // namespace jhpc::jhpcd
