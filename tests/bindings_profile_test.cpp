// The binding core's profile contract: both Java bindings are the same
// Comm and Win classes, and the profile (chosen by the namespace that
// launched the job) decides whether a rank has an mpjbuf staging pool.
// perfbench's BindingPort::pool() picks its code by exactly the
// compile-time check below.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "jhpc/mv2j/env.hpp"
#include "jhpc/ompij/ompij.hpp"

namespace jhpc {
namespace {

// A requires-expression only tolerates an invalid requirement inside a
// template, as in BindingPort; hence the variable template.
template <class Env>
constexpr bool kHasPool = requires(Env& e) { e.pool(); };
static_assert(kHasPool<mv2j::Env>);
static_assert(!kHasPool<ompij::Env>);
static_assert(std::is_same_v<ompij::Comm, mv2j::Comm>);
static_assert(std::is_same_v<ompij::Win, mv2j::Win>);

/// Blocking array send/recv traffic with pvars on; returns each rank's
/// mpjbuf.pool.requests.
template <class Options, class RunFn>
std::vector<std::int64_t> pool_requests_after_arrays(RunFn run_job) {
  Options o;
  o.ranks = 2;
  o.jvm.heap_bytes = 8 << 20;
  o.jvm.jni_crossing_ns = 0;
  o.obs = obs::ObsConfig{};
  o.obs.pvars = true;
  o.obs.quiet = true;
  std::vector<std::int64_t> requests(2, -1);
  run_job(o, [&requests](auto& env) {
    auto& world = env.COMM_WORLD();
    ASSERT_NE(env.pvars(), nullptr);
    auto arr = env.template newArray<minijvm::jint>(64);
    for (int iter = 0; iter < 4; ++iter) {
      if (world.getRank() == 0) {
        world.send(arr, 64, mv2j::INT, 1, 5);
      } else {
        world.recv(arr, 64, mv2j::INT, 0, 5);
      }
    }
    world.barrier();
    requests[static_cast<std::size_t>(world.getRank())] =
        env.readPvar("mpjbuf.pool.requests");
  });
  return requests;
}

TEST(BindingProfileTest, Mv2jArrayTrafficStagesThroughThePool) {
  const auto requests = pool_requests_after_arrays<mv2j::RunOptions>(
      [](const mv2j::RunOptions& o, auto body) {
        mv2j::run(o, [&body](mv2j::Env& env) { body(env); });
      });
  EXPECT_GE(requests[0], 4);  // one staging buffer per array send
  EXPECT_GE(requests[1], 4);  // and per array receive
}

TEST(BindingProfileTest, OmpijArrayTrafficBuildsNoPool) {
  const auto requests = pool_requests_after_arrays<ompij::RunOptions>(
      [](const ompij::RunOptions& o, auto body) {
        ompij::run(o, [&body](ompij::Env& env) { body(env); });
      });
  EXPECT_EQ(requests[0], 0);
  EXPECT_EQ(requests[1], 0);
}

}  // namespace
}  // namespace jhpc
