// ULFM-style rank-failure resilience suite (docs/FAULTS.md): scheduled
// and external fail-stops must surface as typed errors — never hangs —
// from every blocking entry point (p2p, collectives, nonblocking
// collectives, wait_all/wait_any); revoke/shrink/agree must recover a
// working communicator; teardown after a failed job must leave the
// Universe reusable; and a kill-free job must carry none of the
// machinery (no fault.rank.* pvars).
//
// Runs under `ctest -L faults` and is part of the TSan / ASan+UBSan
// sanitizer sweeps: the failure paths cross rank threads by design.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "jhpc/minimpi/minimpi.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/obs/obs.hpp"
#include "jhpc/ompij/ompij.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi {
namespace {

/// A hermetic config with a scheduled kill list.
UniverseConfig kill_cfg(int ranks,
                        std::vector<netsim::FaultPlan::RankKill> kills) {
  UniverseConfig c;
  c.world_size = ranks;
  c.obs = obs::ObsConfig{};
  c.fabric.faults.kills = std::move(kills);
  return c;
}

/// Same, with the pvar registry alive (trace to a scratch file).
UniverseConfig obs_cfg(UniverseConfig c, const std::string& tag) {
  c.obs.trace_path = testing::TempDir() + "resilience_" + tag + ".json";
  return c;
}

bool failure_code(const jhpc::Error& e) {
  return e.code() == ErrorCode::kRankFailed ||
         e.code() == ErrorCode::kCommRevoked;
}

// --- Point-to-point ---------------------------------------------------------

TEST(ResilienceP2PTest, BlockingRecvFromKilledRankRaises) {
  UniverseConfig c = kill_cfg(2, {{1, 0}});
  std::atomic<int> observed{0};
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    char b = 0;
    // SPMD: rank 1 dies at its first transport entry; rank 0 must get a
    // typed error instead of waiting forever.
    try {
      world.recv(&b, 1, 1 - world.rank(), 7);
      ADD_FAILURE() << "recv from a dead rank returned";
    } catch (const RankFailedError& e) {
      EXPECT_EQ(world.rank(), 0) << "only the survivor should see this";
      EXPECT_EQ(e.failed_ranks(), std::vector<int>{1});
      EXPECT_EQ(e.code(), ErrorCode::kRankFailed);
      observed.fetch_add(1);
      // Sends towards the corpse must fail too (eager would otherwise
      // buffer-and-forget).
      EXPECT_THROW(world.send(&b, 1, 1, 8), RankFailedError);
      EXPECT_EQ(world.failed_ranks(), std::vector<int>{1});
    }
  });
  EXPECT_EQ(observed.load(), 1);
}

TEST(ResilienceP2PTest, ExternalKillWakesParkedRecv) {
  UniverseConfig c = kill_cfg(3, {});
  Universe u(c);
  std::atomic<int> observed{0};
  u.run([&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    if (world.rank() == 2) {
      // Let ranks 0 and 1 park in their receives, then shoot rank 1 from
      // another rank's thread (the documented test-hook contract).
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      u.kill_rank(1);
      return;
    }
    char b = 0;
    try {
      world.recv(&b, 1, 1 - world.rank(), 7);  // 0<-1 and 1<-0, both park
      ADD_FAILURE() << "parked recv survived the kill";
    } catch (const RankFailedError& e) {
      EXPECT_EQ(world.rank(), 0);
      EXPECT_EQ(e.failed_ranks(), std::vector<int>{1});
      observed.fetch_add(1);
    }
    // Rank 1 unwinds with the internal kill exception, which run()
    // swallows as part of the fault scenario; only rank 0 gets here.
  });
  EXPECT_EQ(observed.load(), 1);
}

// --- Blocking collectives: fail, revoke, shrink -----------------------------

TEST(ResilienceCollTest, CollectiveFailureThenShrinkGivesWorkingComm) {
  UniverseConfig c = kill_cfg(5, {{2, 0}});
  std::atomic<int> recovered{0};
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    if (world.rank() == 2) {
      world.barrier();  // dies here (first transport entry, kill at t=0)
      return;
    }
    double in = world.rank() + 1.0;
    double out = 0.0;
    bool caught = false;
    // The first observer raises RankFailedError and auto-revokes; the
    // rest see CommRevokedError on this or a later iteration.
    for (int i = 0; i < 64 && !caught; ++i) {
      try {
        world.allreduce(&in, &out, 1, BasicKind::kDouble, ReduceOp::kSum);
      } catch (const jhpc::Error& e) {
        ASSERT_TRUE(failure_code(e)) << e.what();
        caught = true;
      }
    }
    ASSERT_TRUE(caught) << "rank " << world.rank()
                        << " never observed the failure";
    Comm alive = world.shrink();
    EXPECT_EQ(alive.size(), 4);
    // Dense re-rank preserving world order: 0,1,3,4 -> 0,1,2,3.
    const int expect_rank = world.rank() < 2 ? world.rank() : world.rank() - 1;
    EXPECT_EQ(alive.rank(), expect_rank);
    // Bit-correct collective on the survivors: 1 + 2 + 4 + 5.
    out = 0.0;
    alive.allreduce(&in, &out, 1, BasicKind::kDouble, ReduceOp::kSum);
    EXPECT_EQ(out, 12.0);
    EXPECT_EQ(world.failed_ranks(), std::vector<int>{2});
    recovered.fetch_add(1);
  });
  EXPECT_EQ(recovered.load(), 4);
}

TEST(ResilienceCollTest, RevokeInterruptsWithoutFailuresAndShrinkRestores) {
  UniverseConfig c = kill_cfg(3, {});
  std::atomic<int> revoked_seen{0};
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    if (world.rank() == 0) world.revoke();
    // Everyone — including the revoker — gets CommRevokedError from the
    // next operation, even one already parked in the barrier.
    try {
      world.barrier();
      ADD_FAILURE() << "barrier completed on a revoked communicator";
    } catch (const CommRevokedError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCommRevoked);
      revoked_seen.fetch_add(1);
    }
    char b = 0;
    EXPECT_THROW(world.send(&b, 1, (world.rank() + 1) % 3, 1),
                 CommRevokedError);
    // No one died, so shrink reproduces the full membership on a fresh
    // (un-revoked) context.
    Comm alive = world.shrink();
    EXPECT_EQ(alive.size(), 3);
    EXPECT_EQ(alive.rank(), world.rank());
    alive.barrier();
  });
  EXPECT_EQ(revoked_seen.load(), 3);
}

// --- Nonblocking collectives: fail pending, poison dependents ---------------

TEST(ResilienceNbcTest, PendingScheduleFailsAndCommIsPoisoned) {
  UniverseConfig c = kill_cfg(4, {{3, 0}});
  std::atomic<int> surfaced{0};
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    if (world.rank() == 3) {
      world.barrier();  // dies here (first transport entry, kill at t=0)
      return;
    }
    float in = 1.0f, out = 0.0f;
    try {
      Request r =
          world.iallreduce(&in, &out, 1, BasicKind::kFloat, ReduceOp::kSum);
      r.wait();
      ADD_FAILURE() << "pending NBC completed over a dead rank";
    } catch (const jhpc::Error& e) {
      ASSERT_TRUE(failure_code(e)) << e.what();
      surfaced.fetch_add(1);
    }
    // The failure revoked the communicator: a second schedule must refuse
    // to run rather than wait on the corpse.
    try {
      Request r2 = world.ibarrier();
      r2.wait();
      ADD_FAILURE() << "NBC ran on a revoked communicator";
    } catch (const jhpc::Error& e) {
      EXPECT_TRUE(failure_code(e)) << e.what();
    }
    // Recovery works from NBC failures exactly as from blocking ones.
    Comm alive = world.shrink();
    Request r3 = alive.ibarrier();
    r3.wait();
  });
  EXPECT_EQ(surfaced.load(), 3);
}

// --- wait_all / wait_any with a mixed alive/dead request set ----------------

TEST(ResilienceWaitTest, WaitAllCompletesAliveThenSurfacesFailure) {
  UniverseConfig c = kill_cfg(3, {{2, 0}});
  std::atomic<bool> checked{false};
  // Rank 2 dies at its first transport entry; it enters only once rank 0
  // has posted both receives, so the death breaks a posted receive (a
  // receive posted after the death would itself raise, at the post).
  std::atomic<bool> posted{false};
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    if (world.rank() == 1) {
      char payload = 42;
      world.send(&payload, 1, 0, 5);
      return;
    }
    if (world.rank() != 0) {
      // Rank 2: die at the first transport entry (SPMD recv).
      while (!posted.load()) std::this_thread::yield();
      char b = 0;
      world.recv(&b, 1, 0, 99);
      return;
    }
    char from_alive = 0, from_dead = 0;
    std::vector<Request> reqs;
    reqs.push_back(world.irecv(&from_alive, 1, 1, 5));
    reqs.push_back(world.irecv(&from_dead, 1, 2, 6));
    posted.store(true);
    try {
      Request::wait_all(reqs);
      ADD_FAILURE() << "wait_all completed over a dead sender";
    } catch (const RankFailedError& e) {
      EXPECT_EQ(e.failed_ranks(), std::vector<int>{2});
    }
    // The alive request was waited (in order) before the failure threw.
    EXPECT_EQ(from_alive, 42);
    checked.store(true);
  });
  EXPECT_TRUE(checked.load());
}

TEST(ResilienceWaitTest, WaitAnyEitherCompletesAliveOrThrows) {
  UniverseConfig c = kill_cfg(3, {{2, 0}});
  std::atomic<bool> checked{false};
  // Rank 2 dies at its first transport entry; it enters only once rank 0
  // has posted both receives, so the death breaks a posted receive (a
  // receive posted after the death would itself raise, at the post).
  std::atomic<bool> posted{false};
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    if (world.rank() == 1) {
      char payload = 7;
      world.send(&payload, 1, 0, 5);
      return;
    }
    if (world.rank() != 0) {
      while (!posted.load()) std::this_thread::yield();
      char b = 0;
      world.recv(&b, 1, 0, 99);
      return;
    }
    char from_dead = 0, from_alive = 0;
    std::vector<Request> reqs;
    reqs.push_back(world.irecv(&from_dead, 1, 2, 6));
    reqs.push_back(world.irecv(&from_alive, 1, 1, 5));
    posted.store(true);
    // Both outcomes are legal: the failure may surface before or after
    // the alive completion, but the alive payload must never be lost and
    // the dead request must never complete.
    try {
      const std::size_t idx = Request::wait_any(reqs);
      EXPECT_EQ(idx, 1u);
      EXPECT_EQ(from_alive, 7);
      EXPECT_THROW(reqs[0].wait(), RankFailedError);
    } catch (const RankFailedError&) {
      reqs[1].wait();
      EXPECT_EQ(from_alive, 7);
    }
    checked.store(true);
  });
  EXPECT_TRUE(checked.load());
}

// --- Fault-tolerant agreement ----------------------------------------------

TEST(ResilienceAgreeTest, AgreeIsConsistentUnderMidAgreementFailure) {
  UniverseConfig c = kill_cfg(5, {{2, 0}});
  std::vector<int> results(5, -1);
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    // Rank 2 dies at its agree entry: the survivors must still converge,
    // and on the SAME value (the AND over surviving contributions).
    const int flag = world.rank() == 1 ? 0b101 : 0b111;
    results[static_cast<std::size_t>(world.rank())] = world.agree(flag);
    EXPECT_EQ(world.failed_ranks(), std::vector<int>{2});
  });
  EXPECT_EQ(results[0], 0b101);
  EXPECT_EQ(results[1], 0b101);
  EXPECT_EQ(results[2], -1) << "the dead rank must not have returned";
  EXPECT_EQ(results[3], 0b101);
  EXPECT_EQ(results[4], 0b101);
}

TEST(ResilienceAgreeTest, AgreeAndsAllFlagsWithoutFailures) {
  UniverseConfig c = kill_cfg(4, {});
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    EXPECT_EQ(world.agree(~0), ~0);
    EXPECT_EQ(world.agree(world.rank() == 3 ? 0 : 1), 0);
  });
}

// --- Error handlers ---------------------------------------------------------

TEST(ResilienceFatalTest, DefaultHandlerAbortsTheJob) {
  UniverseConfig c = kill_cfg(2, {{1, 0}});
  // No errhandler set: MPI.ERRORS_ARE_FATAL semantics — the failure
  // aborts every rank and run() rethrows it to the launcher.
  EXPECT_THROW(Universe::launch(c,
                                [](Comm& world) {
                                  char b = 0;
                                  world.recv(&b, 1, 1 - world.rank(), 7);
                                }),
               RankFailedError);
}

TEST(ResilienceFatalTest, RankKillDumpsFlightRecorderReport) {
  // A fatal rank failure must leave a black-box dump: the victim's ring
  // carries the kill event, the survivor's its stranded receive — the
  // post is recorded ahead of the dead-peer entry check, so it appears
  // even when the kill (instant 0) beats the survivor into recv.
  UniverseConfig c = kill_cfg(2, {{1, 0}});
  const std::string dump = testing::TempDir() + "flight_kill.txt";
  std::remove(dump.c_str());
  c.obs.flight_dump_path = dump;
  EXPECT_THROW(Universe::launch(c,
                                [](Comm& world) {
                                  char b = 0;
                                  world.recv(&b, 1, 1 - world.rank(), 7);
                                }),
               RankFailedError);
  std::ifstream f(dump);
  ASSERT_TRUE(f.good()) << "flight dump not written to " << dump;
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string report = ss.str();
  EXPECT_NE(report.find("flight recorder"), std::string::npos);
  EXPECT_NE(report.find("involved ranks: 0 1"), std::string::npos);
  EXPECT_NE(report.find("rank 1:"), std::string::npos);  // the victim...
  EXPECT_NE(report.find("kill"), std::string::npos);
  EXPECT_NE(report.find("rank 0:"), std::string::npos);  // ...the survivor
  EXPECT_NE(report.find("post"), std::string::npos);
}

TEST(ResilienceFatalTest, ErrhandlerIsInheritedByDerivedComms) {
  UniverseConfig c = kill_cfg(4, {});
  Universe u(c);
  std::atomic<int> caught{0};
  u.run([&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    EXPECT_EQ(world.errhandler(), Errhandler::kErrorsReturn);
    Comm dup = world.dup();  // everyone alive: completes deterministically
    EXPECT_EQ(dup.errhandler(), Errhandler::kErrorsReturn);
    // Sync on WORLD (a different context id) so rank 3's death cannot
    // land inside this barrier: the dup's auto-revoke only poisons the
    // dup, and by the time anyone enters it rank 3 has already sent all
    // its world-barrier messages.
    world.barrier();
    if (world.rank() == 3) {
      u.kill_rank(3);
      dup.barrier();  // dies at entry; the kill unwinds this rank thread
      return;
    }
    try {
      dup.barrier();  // rank 3 dies here; the dup must RETURN the error
    } catch (const jhpc::Error& e) {
      EXPECT_TRUE(failure_code(e)) << e.what();
      caught.fetch_add(1);
    }
  });
  EXPECT_EQ(caught.load(), 3);
}

// dup's context-id agreement is not a user collective: a dead peer there
// raises RankFailedError, and the parent stays usable like after a failed
// point-to-point call.
TEST(ResilienceFatalTest, DupMeetingDeadPeerDoesNotRevokeParent) {
  UniverseConfig c = kill_cfg(3, {{0, 0}});
  std::atomic<int> caught{0};
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    try {
      Comm dup = world.dup();  // rank 0 (the agreement root) dies here
      ADD_FAILURE() << "dup without its root returned";
    } catch (const RankFailedError& e) {
      EXPECT_EQ(e.failed_ranks(), std::vector<int>{0});
      caught.fetch_add(1);
    }
    int token = world.rank();
    if (world.rank() == 1) {
      world.send(&token, sizeof(token), 2, 9);
    } else {
      world.recv(&token, sizeof(token), 1, 9);
      EXPECT_EQ(token, 1);
    }
  });
  EXPECT_EQ(caught.load(), 2);
}

// --- Teardown / reuse after a failed job ------------------------------------

TEST(ResilienceTeardownTest, UniverseIsReusableAfterAFailedJob) {
  UniverseConfig c = kill_cfg(3, {});
  Universe u(c);
  // Job 1 ends with rank 1 shot mid-flight: parked receives, buffered
  // eager payloads and failure state are all left behind on purpose.
  u.run([&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    if (world.rank() == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      u.kill_rank(1);
      return;
    }
    char b = 0;
    try {
      world.recv(&b, 1, 1 - world.rank(), 7);
    } catch (const RankFailedError&) {
      EXPECT_EQ(world.rank(), 0);
    }
  });
  // Job 2 on the SAME Universe: everyone is alive again, no stale state
  // may match, and exact values must flow.
  u.run([](Comm& world) {
    EXPECT_TRUE(world.failed_ranks().empty());
    EXPECT_EQ(world.errhandler(), Errhandler::kErrorsAreFatal)
        << "errhandlers must reset between jobs";
    int token = world.rank() * 10;
    if (world.rank() == 0) {
      int got = 0;
      world.recv(&got, sizeof(got), 1, 3);
      EXPECT_EQ(got, 10);
    } else if (world.rank() == 1) {
      world.send(&token, sizeof(token), 0, 3);
    }
    int sum = 0;
    world.allreduce(&token, &sum, 1, BasicKind::kInt, ReduceOp::kSum);
    EXPECT_EQ(sum, 30);
  });
}

// --- Zero cost when off -----------------------------------------------------

TEST(ResilienceZeroCostTest, KillFreeJobCarriesNoRankPvars) {
  UniverseConfig c = obs_cfg(kill_cfg(2, {}), "zerocost");
  Universe::launch(c, [](Comm& world) {
    char b = static_cast<char>(world.rank());
    if (world.rank() == 0) {
      world.send(&b, 1, 1, 1);
    } else {
      world.recv(&b, 1, 0, 1);
    }
    world.barrier();
    if (world.rank() == 0) {
      for (const auto& r : world.pvars()->snapshot()) {
        EXPECT_EQ(r.name.rfind("fault.rank.", 0), std::string::npos)
            << r.name << " registered in a kill-free job";
      }
    }
  });
}

TEST(ResilienceZeroCostTest, KilledJobAccountsItsRecovery) {
  UniverseConfig c = obs_cfg(kill_cfg(3, {{1, 0}}), "accounting");
  Universe::launch(c, [](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    double x = 1.0, y = 0.0;
    bool caught = false;
    for (int i = 0; i < 64 && !caught; ++i) {
      try {
        world.allreduce(&x, &y, 1, BasicKind::kDouble, ReduceOp::kSum);
      } catch (const jhpc::Error&) {
        caught = true;
      }
    }
    ASSERT_TRUE(caught);
    Comm alive = world.shrink();
    // Survivors drain through the shrunk comm so rank 0's pvar read
    // happens after every other survivor finished its transport calls.
    alive.barrier();
    if (world.rank() == 0) {
      obs::PvarRegistry& reg = *world.pvars();
      EXPECT_EQ(reg.total(reg.find("fault.rank.kills")), 1);
      EXPECT_GE(reg.total(reg.find("fault.rank.detected")), 1);
      EXPECT_GE(reg.total(reg.find("fault.rank.revokes")), 1);
      EXPECT_EQ(reg.total(reg.find("fault.rank.shrinks")), 2);
    }
  });
}

// --- Error taxonomy ---------------------------------------------------------

TEST(ResilienceTaxonomyTest, ErrorCodesAreStable) {
  // These values are API (docs/API.md): bindings and tools match on them.
  EXPECT_EQ(static_cast<int>(ErrorCode::kUnknown), 0);
  EXPECT_EQ(static_cast<int>(ErrorCode::kInvalidArgument), 1);
  EXPECT_EQ(static_cast<int>(ErrorCode::kInternal), 2);
  EXPECT_EQ(static_cast<int>(ErrorCode::kUnsupported), 3);
  EXPECT_EQ(static_cast<int>(ErrorCode::kTransportTimeout), 4);
  EXPECT_EQ(static_cast<int>(ErrorCode::kTruncated), 5);
  EXPECT_EQ(static_cast<int>(ErrorCode::kRankFailed), 6);
  EXPECT_EQ(static_cast<int>(ErrorCode::kCommRevoked), 7);
  EXPECT_EQ(static_cast<int>(ErrorCode::kAborted), 8);

  EXPECT_EQ(jhpc::InvalidArgumentError("x").code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(jhpc::InternalError("x").code(), ErrorCode::kInternal);
  EXPECT_EQ(jhpc::UnsupportedOperationError("x").code(),
            ErrorCode::kUnsupported);
  EXPECT_EQ(TransportTimeoutError("x").code(), ErrorCode::kTransportTimeout);
  EXPECT_EQ(TruncationError("x").code(), ErrorCode::kTruncated);
  EXPECT_EQ(RankFailedError("x", {3}).code(), ErrorCode::kRankFailed);
  EXPECT_EQ(CommRevokedError("x").code(), ErrorCode::kCommRevoked);
}

// --- One-sided communication under rank failure -----------------------------

TEST(ResilienceRmaTest, TargetKillMidEpochSurfacesTypedErrorWithoutHang) {
  // Rank 2 dies mid-job while everyone loops put+fence epochs against a
  // ring neighbour. Every survivor must get a typed ULFM error out of an
  // epoch-closing call — never a hang (the suite TIMEOUT is the
  // no-hang assertion's teeth).
  UniverseConfig c = kill_cfg(3, {{2, 50'000}});
  std::atomic<int> typed{0};
  Universe::launch(c, [&](Comm& world) {
    world.set_errhandler(Errhandler::kErrorsReturn);
    try {
      // win_allocate is itself collective: when sanitizer-inflated
      // virtual clocks let the kill fire this early, the typed error
      // must surface here just as it would from a fence.
      Win win = world.win_allocate(256);
      win.fence();
      std::uint8_t payload[32] = {7};
      for (;;) {
        // The kill fires once the victim's virtual clock crosses the
        // scheduled instant; survivors' next epoch close must throw.
        win.put(payload, sizeof payload, (world.rank() + 1) % 3, 0);
        win.fence();
      }
    } catch (const RankFailedError& e) {
      // Concrete ULFM types only: the victim's own kill is a distinct
      // (same-code) exception type that must unwind to the harness.
      EXPECT_TRUE(world.rank() == 0 || world.rank() == 1)
          << "only survivors should observe the failure: " << e.what();
      typed.fetch_add(1);
    } catch (const CommRevokedError&) {
      EXPECT_TRUE(world.rank() == 0 || world.rank() == 1)
          << "only survivors should observe the failure";
      typed.fetch_add(1);
    }
  });
  EXPECT_EQ(typed.load(), 2) << "both survivors must see a typed error";
}

TEST(ResilienceRmaTest, TargetKillMidEpochDumpsRmaFlightEvents) {
  // Fatal-by-default semantics, with the black box on: the dump must
  // carry the survivor's one-sided activity (rma_put spans and the
  // epoch-close rma_sync marker), not just the stranded two-sided posts.
  // The kill instant must leave room for at least one full put+fence
  // epoch even when sanitizers inflate the CPU-time-driven virtual
  // clock (under TSan the initial fence alone crosses 100us).
  UniverseConfig c = kill_cfg(2, {{1, 2'000'000}});
  const std::string dump = testing::TempDir() + "flight_rma_kill.txt";
  std::remove(dump.c_str());
  c.obs.flight_dump_path = dump;
  EXPECT_THROW(Universe::launch(c,
                                [](Comm& world) {
                                  Win win = world.win_allocate(128);
                                  win.fence();
                                  std::uint8_t payload[32] = {42};
                                  for (;;) {
                                    win.put(payload, sizeof payload,
                                            (world.rank() + 1) % 2, 0);
                                    win.fence();
                                  }
                                }),
               RankFailedError);
  std::ifstream f(dump);
  ASSERT_TRUE(f.good()) << "flight dump not written to " << dump;
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string report = ss.str();
  EXPECT_NE(report.find("flight recorder"), std::string::npos);
  EXPECT_NE(report.find("involved ranks: 0 1"), std::string::npos);
  EXPECT_NE(report.find("rma_put"), std::string::npos)
      << "one-sided puts missing from the black box:\n"
      << report;
  EXPECT_NE(report.find("rma_sync"), std::string::npos)
      << "epoch-close markers missing from the black box:\n"
      << report;
}

}  // namespace
}  // namespace jhpc::minimpi

// --- ULFM through the Java-style bindings -----------------------------------

namespace jhpc {
namespace {

TEST(ResilienceBindingsTest, Mv2jSurvivesAKillByShrinking) {
  mv2j::RunOptions opts;
  opts.ranks = 4;
  opts.obs = obs::ObsConfig{};
  opts.fabric.faults.kills = {{2, 0}};
  std::atomic<int> recovered{0};
  mv2j::run(opts, [&](mv2j::Env& env) {
    auto world = env.COMM_WORLD();
    world.setErrhandler(mv2j::ERRORS_RETURN);
    EXPECT_EQ(world.getErrhandler(), mv2j::ERRORS_RETURN);
    if (world.getRank() == 2) {
      world.barrier();  // dies here (first transport entry, kill at t=0)
      return;
    }
    auto in = env.newArray<minijvm::jint>(1);
    auto out = env.newArray<minijvm::jint>(1);
    in[0] = world.getRank() + 1;
    bool caught = false;
    for (int i = 0; i < 64 && !caught; ++i) {
      try {
        world.allReduce(in, out, 1, mv2j::INT, mv2j::SUM);
      } catch (const jhpc::Error& e) {
        ASSERT_TRUE(e.code() == ErrorCode::kRankFailed ||
                    e.code() == ErrorCode::kCommRevoked)
            << e.what();
        caught = true;
      }
    }
    ASSERT_TRUE(caught);
    mv2j::Comm alive = world.shrink();
    EXPECT_EQ(alive.getSize(), 3);
    EXPECT_EQ(alive.agree(1), 1);
    alive.allReduce(in, out, 1, mv2j::INT, mv2j::SUM);
    EXPECT_EQ(out[0], 1 + 2 + 4);  // world ranks 0, 1, 3
    EXPECT_EQ(world.getFailedRanks(), std::vector<int>{2});
    recovered.fetch_add(1);
  });
  EXPECT_EQ(recovered.load(), 3);
}

TEST(ResilienceBindingsTest, OmpijExposesTheUlfmSurface) {
  ompij::RunOptions opts;
  opts.ranks = 3;
  opts.obs = obs::ObsConfig{};
  ompij::run(opts, [&](ompij::Env& env) {
    auto world = env.COMM_WORLD();
    world.setErrhandler(ompij::ERRORS_RETURN);
    EXPECT_EQ(world.getErrhandler(), ompij::ERRORS_RETURN);
    EXPECT_TRUE(world.getFailedRanks().empty());
    EXPECT_EQ(world.agree(0b11), 0b11);
    if (world.getRank() == 0) world.revoke();
    try {
      world.barrier();
      ADD_FAILURE() << "barrier completed on a revoked communicator";
    } catch (const jhpc::Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCommRevoked);
    }
    ompij::Comm alive = world.shrink();
    EXPECT_EQ(alive.getSize(), 3);
    alive.barrier();
  });
}

}  // namespace
}  // namespace jhpc
