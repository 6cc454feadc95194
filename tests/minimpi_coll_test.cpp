// Collective semantics, exercised over BOTH algorithm suites and a range
// of communicator sizes (parameterized): every collective must produce
// identical results regardless of suite or rank count.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <numeric>
#include <span>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "jhpc/minimpi/minimpi.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi {
namespace {

using SuiteSize = std::tuple<CollectiveSuite, int>;

class CollTest : public ::testing::TestWithParam<SuiteSize> {
 protected:
  UniverseConfig make_cfg() const {
    UniverseConfig c;
    c.suite = std::get<0>(GetParam());
    c.world_size = std::get<1>(GetParam());
    // Small thresholds so "large message" algorithm variants are hit by
    // modest test payloads.
    c.bcast_binomial_max = 512;
    c.allreduce_rd_max = 512;
    c.allgather_rd_max = 1024;
    c.eager_limit = 2048;
    return c;
  }
};

TEST_P(CollTest, BarrierCompletes) {
  Universe::launch(make_cfg(), [](Comm& world) {
    for (int i = 0; i < 5; ++i) world.barrier();
  });
}

TEST_P(CollTest, BcastSmallFromEveryRoot) {
  Universe::launch(make_cfg(), [](Comm& world) {
    for (int root = 0; root < world.size(); ++root) {
      std::vector<int> buf(16, world.rank() == root ? root * 7 + 1 : -1);
      world.bcast(buf.data(), buf.size() * sizeof(int), root);
      for (int v : buf) EXPECT_EQ(v, root * 7 + 1);
    }
  });
}

TEST_P(CollTest, BcastLargeHitsScatterRingPath) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const std::size_t n = 64 * 1024;  // far above bcast_binomial_max
    std::vector<std::uint8_t> buf(n);
    if (world.rank() == 2 % world.size()) {
      for (std::size_t i = 0; i < n; ++i)
        buf[i] = static_cast<std::uint8_t>(i * 13 & 0xff);
    }
    world.bcast(buf.data(), n, 2 % world.size());
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(buf[i], static_cast<std::uint8_t>(i * 13 & 0xff));
  });
}

TEST_P(CollTest, ReduceSumToEveryRoot) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const int size = world.size();
    for (int root = 0; root < size; ++root) {
      std::vector<std::int32_t> mine(10);
      for (std::size_t i = 0; i < mine.size(); ++i)
        mine[i] = world.rank() + static_cast<int>(i);
      std::vector<std::int32_t> out(10, -1);
      world.reduce(mine.data(), out.data(), mine.size(), BasicKind::kInt,
                   ReduceOp::kSum, root);
      if (world.rank() == root) {
        const int ranksum = size * (size - 1) / 2;
        for (std::size_t i = 0; i < out.size(); ++i)
          EXPECT_EQ(out[i], ranksum + static_cast<int>(i) * size);
      }
    }
  });
}

TEST_P(CollTest, ReduceMinMax) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const std::int64_t mine = 1000 - 7 * world.rank();
    std::int64_t lo = 0, hi = 0;
    world.reduce(&mine, &lo, 1, BasicKind::kLong, ReduceOp::kMin, 0);
    world.reduce(&mine, &hi, 1, BasicKind::kLong, ReduceOp::kMax, 0);
    if (world.rank() == 0) {
      EXPECT_EQ(lo, 1000 - 7 * (world.size() - 1));
      EXPECT_EQ(hi, 1000);
    }
  });
}

TEST_P(CollTest, AllreduceSmallRecursiveDoubling) {
  Universe::launch(make_cfg(), [](Comm& world) {
    std::int32_t v = world.rank() + 1;
    std::int32_t sum = 0;
    world.allreduce(&v, &sum, 1, BasicKind::kInt, ReduceOp::kSum);
    EXPECT_EQ(sum, world.size() * (world.size() + 1) / 2);
  });
}

TEST_P(CollTest, AllreduceLargeRingPath) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const std::size_t count = 8192;  // 32 KB of ints > allreduce_rd_max
    std::vector<std::int32_t> mine(count);
    for (std::size_t i = 0; i < count; ++i)
      mine[i] = world.rank() + static_cast<std::int32_t>(i % 97);
    std::vector<std::int32_t> out(count, 0);
    world.allreduce(mine.data(), out.data(), count, BasicKind::kInt,
                    ReduceOp::kSum);
    const int size = world.size();
    const int ranksum = size * (size - 1) / 2;
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(out[i], ranksum + static_cast<std::int32_t>(i % 97) * size);
  });
}

TEST_P(CollTest, AllreduceDoubleSum) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const double v = 0.5 * (world.rank() + 1);
    double sum = 0;
    world.allreduce(&v, &sum, 1, BasicKind::kDouble, ReduceOp::kSum);
    EXPECT_NEAR(sum, 0.5 * world.size() * (world.size() + 1) / 2, 1e-9);
  });
}

TEST_P(CollTest, GatherOrdersBlocksByRank) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const int size = world.size();
    for (int root = 0; root < size; ++root) {
      std::array<std::int32_t, 4> mine{};
      mine.fill(world.rank() * 10 + root);
      std::vector<std::int32_t> all(static_cast<std::size_t>(size) * 4, -1);
      world.gather(mine.data(), sizeof(mine), all.data(), root);
      if (world.rank() == root) {
        for (int r = 0; r < size; ++r)
          for (int j = 0; j < 4; ++j)
            EXPECT_EQ(all[static_cast<std::size_t>(r * 4 + j)],
                      r * 10 + root);
      }
    }
  });
}

TEST_P(CollTest, ScatterDistributesBlocks) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const int size = world.size();
    for (int root = 0; root < size; ++root) {
      std::vector<std::int32_t> all;
      if (world.rank() == root) {
        all.resize(static_cast<std::size_t>(size) * 3);
        for (int r = 0; r < size; ++r)
          for (int j = 0; j < 3; ++j)
            all[static_cast<std::size_t>(r * 3 + j)] = r * 100 + j;
      }
      std::array<std::int32_t, 3> mine{};
      world.scatter(all.data(), sizeof(mine), mine.data(), root);
      for (int j = 0; j < 3; ++j)
        EXPECT_EQ(mine[static_cast<std::size_t>(j)],
                  world.rank() * 100 + j);
    }
  });
}

TEST_P(CollTest, AllgatherSmallAndLarge) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const int size = world.size();
    for (const std::size_t block : {8ul, 4096ul}) {
      std::vector<std::uint8_t> mine(block,
                                     static_cast<std::uint8_t>(world.rank()));
      std::vector<std::uint8_t> all(block * static_cast<std::size_t>(size));
      world.allgather(mine.data(), block, all.data());
      for (int r = 0; r < size; ++r)
        for (std::size_t j = 0; j < block; ++j)
          ASSERT_EQ(all[static_cast<std::size_t>(r) * block + j],
                    static_cast<std::uint8_t>(r));
    }
  });
}

TEST_P(CollTest, AlltoallTransposesBlocks) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const int size = world.size();
    std::vector<std::int32_t> send(static_cast<std::size_t>(size) * 2);
    for (int r = 0; r < size; ++r) {
      send[static_cast<std::size_t>(2 * r)] = world.rank() * 1000 + r;
      send[static_cast<std::size_t>(2 * r + 1)] = -(world.rank() + r);
    }
    std::vector<std::int32_t> recv(static_cast<std::size_t>(size) * 2, 7777);
    world.alltoall(send.data(), 2 * sizeof(std::int32_t), recv.data());
    for (int r = 0; r < size; ++r) {
      EXPECT_EQ(recv[static_cast<std::size_t>(2 * r)],
                r * 1000 + world.rank());
      EXPECT_EQ(recv[static_cast<std::size_t>(2 * r + 1)],
                -(r + world.rank()));
    }
  });
}

TEST_P(CollTest, GathervVariableBlocks) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const int size = world.size();
    // Rank r contributes r+1 ints.
    std::vector<std::size_t> counts(static_cast<std::size_t>(size));
    std::vector<std::size_t> displs(static_cast<std::size_t>(size));
    std::size_t total = 0;
    for (int r = 0; r < size; ++r) {
      counts[static_cast<std::size_t>(r)] =
          static_cast<std::size_t>(r + 1) * sizeof(std::int32_t);
      displs[static_cast<std::size_t>(r)] = total;
      total += counts[static_cast<std::size_t>(r)];
    }
    std::vector<std::int32_t> mine(static_cast<std::size_t>(world.rank()) + 1,
                                   world.rank() + 1);
    std::vector<std::int32_t> all(total / sizeof(std::int32_t), -1);
    world.gatherv(mine.data(), mine.size() * sizeof(std::int32_t),
                  all.data(), counts, displs, 0);
    if (world.rank() == 0) {
      std::size_t idx = 0;
      for (int r = 0; r < size; ++r)
        for (int j = 0; j <= r; ++j) EXPECT_EQ(all[idx++], r + 1);
    }
  });
}

TEST_P(CollTest, ScattervVariableBlocks) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const int size = world.size();
    std::vector<std::size_t> counts(static_cast<std::size_t>(size));
    std::vector<std::size_t> displs(static_cast<std::size_t>(size));
    std::size_t total = 0;
    for (int r = 0; r < size; ++r) {
      counts[static_cast<std::size_t>(r)] =
          static_cast<std::size_t>(r + 1) * sizeof(std::int32_t);
      displs[static_cast<std::size_t>(r)] = total;
      total += counts[static_cast<std::size_t>(r)];
    }
    std::vector<std::int32_t> all;
    if (world.rank() == 0) {
      all.resize(total / sizeof(std::int32_t));
      std::size_t idx = 0;
      for (int r = 0; r < size; ++r)
        for (int j = 0; j <= r; ++j) all[idx++] = r * 7;
    }
    std::vector<std::int32_t> mine(static_cast<std::size_t>(world.rank()) + 1,
                                   -1);
    world.scatterv(all.data(), counts, displs, mine.data(),
                   mine.size() * sizeof(std::int32_t), 0);
    for (const auto v : mine) EXPECT_EQ(v, world.rank() * 7);
  });
}

TEST_P(CollTest, AllgathervRoundTrip) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const int size = world.size();
    std::vector<std::size_t> counts(static_cast<std::size_t>(size));
    std::vector<std::size_t> displs(static_cast<std::size_t>(size));
    std::size_t total = 0;
    for (int r = 0; r < size; ++r) {
      counts[static_cast<std::size_t>(r)] =
          static_cast<std::size_t>((r % 3) + 1) * 8;
      displs[static_cast<std::size_t>(r)] = total;
      total += counts[static_cast<std::size_t>(r)];
    }
    const auto me = static_cast<std::size_t>(world.rank());
    std::vector<std::uint8_t> mine(counts[me],
                                   static_cast<std::uint8_t>(world.rank()));
    std::vector<std::uint8_t> all(total, 0xEE);
    world.allgatherv(mine.data(), mine.size(), all.data(), counts, displs);
    for (int r = 0; r < size; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      for (std::size_t j = 0; j < counts[ri]; ++j)
        ASSERT_EQ(all[displs[ri] + j], static_cast<std::uint8_t>(r));
    }
  });
}

TEST_P(CollTest, AlltoallvTransposesVariableBlocks) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const int size = world.size();
    // Rank r sends (r + dst + 1) bytes to each dst.
    auto count_for = [](int from, int to) {
      return static_cast<std::size_t>(from + to + 1);
    };
    std::vector<std::size_t> scounts, sdispls, rcounts, rdispls;
    std::size_t stotal = 0, rtotal = 0;
    for (int r = 0; r < size; ++r) {
      scounts.push_back(count_for(world.rank(), r));
      sdispls.push_back(stotal);
      stotal += scounts.back();
      rcounts.push_back(count_for(r, world.rank()));
      rdispls.push_back(rtotal);
      rtotal += rcounts.back();
    }
    std::vector<std::uint8_t> send(stotal);
    for (int r = 0; r < size; ++r)
      for (std::size_t j = 0; j < scounts[static_cast<std::size_t>(r)]; ++j)
        send[sdispls[static_cast<std::size_t>(r)] + j] =
            static_cast<std::uint8_t>(world.rank() * 16 + r);
    std::vector<std::uint8_t> recv(rtotal, 0);
    world.alltoallv(send.data(), scounts, sdispls, recv.data(), rcounts,
                    rdispls);
    for (int r = 0; r < size; ++r)
      for (std::size_t j = 0; j < rcounts[static_cast<std::size_t>(r)]; ++j)
        ASSERT_EQ(recv[rdispls[static_cast<std::size_t>(r)] + j],
                  static_cast<std::uint8_t>(r * 16 + world.rank()));
  });
}

TEST_P(CollTest, AlltoallvRejectsShortSpansBeforeCommunicating) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const auto n = static_cast<std::size_t>(world.size());
    std::vector<std::size_t> full(n, 1), offs(n), one(1, 1), zero(1, 0);
    std::iota(offs.begin(), offs.end(), std::size_t{0});
    std::vector<std::uint8_t> send(n, 1), recv(n, 0);
    // Any span shorter than the communicator is rejected on every rank,
    // whichever of the four it is.
    for (int bad = 0; n > 1 && bad < 4; ++bad) {
      std::span<const std::size_t> sc = full, sd = offs, rc = full,
                                   rd = offs;
      (bad == 0 ? sc : bad == 1 ? sd : bad == 2 ? rc : rd) =
          bad % 2 == 0 ? std::span<const std::size_t>(one)
                       : std::span<const std::size_t>(zero);
      EXPECT_THROW(world.alltoallv(send.data(), sc, sd, recv.data(), rc, rd),
                   InvalidArgumentError);
    }
    // Nothing was sent: a well-formed call still pairs up afterwards.
    world.alltoallv(send.data(), full, offs, recv.data(), full, offs);
    for (const auto b : recv) EXPECT_EQ(b, 1);
  });
}

TEST_P(CollTest, GathervRootRejectionKeepsLaterCollectivesInStep) {
  Universe::launch(make_cfg(), [](Comm& world) {
    // counts/displs are significant at the root only: a root that
    // rejects its short spans while the others have sent must leave the
    // communicator's later collectives pairing up as usual.
    const std::vector<std::size_t> one(1, sizeof(int)), zero(1, 0);
    int mine = world.rank();
    std::vector<int> all(static_cast<std::size_t>(world.size()));
    if (world.size() > 1 && world.rank() == 0) {
      EXPECT_THROW(
          world.gatherv(&mine, sizeof(mine), all.data(), one, zero, 0),
          InvalidArgumentError);
    } else if (world.size() > 1) {
      world.gatherv(&mine, sizeof(mine), all.data(), one, zero, 0);
    }
    int sum = -1;
    world.allreduce(&mine, &sum, 1, BasicKind::kInt, ReduceOp::kSum);
    EXPECT_EQ(sum, world.size() * (world.size() - 1) / 2);
  });
}

TEST_P(CollTest, ReduceScatterBlockDeliversOwnBlock) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const int size = world.size();
    constexpr std::size_t kPerRank = 5;
    // Rank r contributes value (r+1) to every element; block b of the
    // reduction is (sum of ranks+1) * marker(b).
    std::vector<std::int32_t> mine(kPerRank * static_cast<std::size_t>(size));
    for (int b = 0; b < size; ++b)
      for (std::size_t j = 0; j < kPerRank; ++j)
        mine[static_cast<std::size_t>(b) * kPerRank + j] =
            (world.rank() + 1) * (b + 1);
    std::vector<std::int32_t> out(kPerRank, -1);
    world.reduce_scatter_block(mine.data(), out.data(), kPerRank,
                               BasicKind::kInt, ReduceOp::kSum);
    const int ranksum = size * (size + 1) / 2;
    for (std::size_t j = 0; j < kPerRank; ++j)
      EXPECT_EQ(out[j], ranksum * (world.rank() + 1));
  });
}

TEST_P(CollTest, ReduceScatterBlockLargeBlocks) {
  Universe::launch(make_cfg(), [](Comm& world) {
    const int size = world.size();
    const std::size_t per_rank = 3000;  // rendezvous-sized traffic
    std::vector<std::int64_t> mine(per_rank * static_cast<std::size_t>(size),
                                   1);
    std::vector<std::int64_t> out(per_rank, 0);
    world.reduce_scatter_block(mine.data(), out.data(), per_rank,
                               BasicKind::kLong, ReduceOp::kSum);
    for (std::size_t j = 0; j < per_rank; ++j) ASSERT_EQ(out[j], size);
  });
}

TEST_P(CollTest, ScanComputesInclusivePrefix) {
  Universe::launch(make_cfg(), [](Comm& world) {
    std::vector<std::int32_t> mine(4);
    for (std::size_t j = 0; j < 4; ++j)
      mine[j] = world.rank() + 1 + static_cast<int>(j);
    std::vector<std::int32_t> out(4, -1);
    world.scan(mine.data(), out.data(), 4, BasicKind::kInt, ReduceOp::kSum);
    const int r = world.rank();
    // sum over q=0..r of (q+1+j) = (r+1)(r+2)/2 + j*(r+1)
    for (std::size_t j = 0; j < 4; ++j)
      EXPECT_EQ(out[j], (r + 1) * (r + 2) / 2 +
                            static_cast<int>(j) * (r + 1));
  });
}

TEST_P(CollTest, ScanWithMaxOperator) {
  Universe::launch(make_cfg(), [](Comm& world) {
    // Values zig-zag so the running max is non-trivial.
    const std::int32_t v = (world.rank() % 3) * 10;
    std::int32_t out = -1;
    world.scan(&v, &out, 1, BasicKind::kInt, ReduceOp::kMax);
    std::int32_t want = 0;
    for (int q = 0; q <= world.rank(); ++q)
      want = std::max(want, (q % 3) * 10);
    EXPECT_EQ(out, want);
  });
}

TEST_P(CollTest, ConsecutiveCollectivesDoNotCrossTalk) {
  Universe::launch(make_cfg(), [](Comm& world) {
    for (int round = 0; round < 10; ++round) {
      std::int32_t v = world.rank() + round;
      std::int32_t sum = 0;
      world.allreduce(&v, &sum, 1, BasicKind::kInt, ReduceOp::kSum);
      const int size = world.size();
      ASSERT_EQ(sum, size * (size - 1) / 2 + round * size);
      int token = round * 31;
      world.bcast(&token, sizeof(token), round % size);
      ASSERT_EQ(token, round * 31);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    SuitesAndSizes, CollTest,
    ::testing::Combine(::testing::Values(CollectiveSuite::kMv2,
                                         CollectiveSuite::kOmpiBasic),
                       ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16)),
    [](const ::testing::TestParamInfo<SuiteSize>& info) {
      const auto suite = std::get<0>(info.param) == CollectiveSuite::kMv2
                             ? "mv2"
                             : "basic";
      return std::string(suite) + "_np" +
             std::to_string(std::get<1>(info.param));
    });

// --- Progress: blocking calls drive outstanding i-collectives ----------------
//
// MPI's progress rule: a rank blocked in any MPI call must keep its
// outstanding nonblocking collectives moving, because a peer may be
// waiting on them. Rank 0 sleeps so every other rank's ibcast is posted
// before the data exists; rank 2 must then forward the binomial tree's
// data to rank 3 while it is blocked in something else.

UniverseConfig progress_cfg(CollectiveSuite suite = CollectiveSuite::kMv2,
                            int ranks_per_node = 0) {
  UniverseConfig c;
  c.world_size = 4;
  c.suite = suite;
  c.fabric.ranks_per_node = ranks_per_node;
  c.obs = obs::ObsConfig{};
  return c;
}

Request start_late_ibcast(Comm& world, std::vector<int>& buf) {
  if (world.rank() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    std::iota(buf.begin(), buf.end(), 7);
  }
  return world.ibcast(buf.data(), buf.size() * sizeof(int), 0);
}

void expect_ibcast_data(const std::vector<int>& buf) {
  for (std::size_t i = 0; i < buf.size(); ++i)
    ASSERT_EQ(buf[i], static_cast<int>(i) + 7);
}

TEST(ProgressTest, BlockingBarrierProgressesIbcast) {
  Universe::launch(progress_cfg(), [](Comm& world) {
    std::vector<int> buf(16, -1);
    Request req = start_late_ibcast(world, buf);
    if (world.rank() == 2) {
      world.barrier();
      req.wait();
    } else {
      req.wait();
      world.barrier();
    }
    expect_ibcast_data(buf);
  });
}

// hier: rank 2 leads node {2, 3}, so its barrier spins on rank 3's
// arrival flag while rank 3 waits for the ibcast data rank 2 forwards.
TEST(ProgressTest, HierFlagWaitProgressesIbcast) {
  Universe::launch(progress_cfg(CollectiveSuite::kHier, 2), [](Comm& world) {
    std::vector<int> buf(16, -1);
    Request req = start_late_ibcast(world, buf);
    if (world.rank() == 2) {
      world.barrier();
      req.wait();
    } else {
      req.wait();
      world.barrier();
    }
    expect_ibcast_data(buf);
  });
}

// Rank 2 blocks in `take_token` on a message rank 3 sends only after its
// ibcast completes, which needs rank 2 to forward the data.
void rank2_blocks_on_token(const std::function<void(Comm&, int&)>& take_token) {
  Universe::launch(progress_cfg(), [&](Comm& world) {
    std::vector<int> buf(16, -1);
    Request req = start_late_ibcast(world, buf);
    int token = -1;
    if (world.rank() == 2) {
      take_token(world, token);
      req.wait();
      EXPECT_EQ(token, 33);
    } else if (world.rank() == 3) {
      req.wait();
      token = 33;
      world.send(&token, sizeof(token), 2, 5);
    } else {
      req.wait();
    }
    expect_ibcast_data(buf);
  });
}

TEST(ProgressTest, BlockingRecvProgressesIbcast) {
  rank2_blocks_on_token([](Comm& world, int& token) {
    world.recv(&token, sizeof(token), 3, 5);
  });
}

TEST(ProgressTest, WaitAnyProgressesIbcast) {
  rank2_blocks_on_token([](Comm& world, int& token) {
    Request reqs[] = {world.irecv(&token, sizeof(token), 3, 5)};
    EXPECT_EQ(Request::wait_any(reqs), 0u);
  });
}

TEST(ProgressTest, ProbeProgressesIbcast) {
  rank2_blocks_on_token([](Comm& world, int& token) {
    EXPECT_EQ(world.probe(3, 5).count_bytes, sizeof(token));
    world.recv(&token, sizeof(token), 3, 5);
  });
}

TEST(ProgressTest, IprobeLoopProgressesIbcast) {
  rank2_blocks_on_token([](Comm& world, int& token) {
    Status st;
    while (!world.iprobe(3, 5, &st)) std::this_thread::yield();
    world.recv(&token, sizeof(token), 3, 5);
  });
}

// --- Schedule shapes --------------------------------------------------------
//
// With the deterministic clock and one rank per node, a blocking
// collective's virtual times are a pure function of its message pattern:
// which sends and receives each rank issues, in what order, and which of
// them it waits for before issuing the next. One FNV-1a hash per
// (suite, ranks, size) case over every rank's vtime_ns() after every
// operation pins those patterns, so an algorithm that gains or loses a
// round, or moves a send across a wait, changes its case's hash. The
// table was recorded from the point-to-point implementations that the
// schedule builders replaced.

struct ShapeCase {
  CollectiveSuite suite;
  int ranks;
  std::size_t size;
  std::uint64_t hash;
};

constexpr ShapeCase kShapeTable[] = {
    {CollectiveSuite::kMv2, 3, 8, 0xb9c9e98c87857054ULL},
    {CollectiveSuite::kMv2, 3, 4096, 0x5834b130fe63eb1dULL},
    {CollectiveSuite::kMv2, 3, 65536, 0x48c46b7a8022315aULL},
    {CollectiveSuite::kMv2, 3, 1048576, 0x5bcfefd91efd2313ULL},
    {CollectiveSuite::kMv2, 4, 8, 0x1c613bed1b1855ecULL},
    {CollectiveSuite::kMv2, 4, 4096, 0xc95a5c7d878cfa00ULL},
    {CollectiveSuite::kMv2, 4, 65536, 0x28460193431c49c0ULL},
    {CollectiveSuite::kMv2, 4, 1048576, 0x9b233677a7412950ULL},
    {CollectiveSuite::kMv2, 5, 8, 0x85700047f64b4d86ULL},
    {CollectiveSuite::kMv2, 5, 4096, 0x91d35845d5cc308fULL},
    {CollectiveSuite::kMv2, 5, 65536, 0x70e366d2465c23faULL},
    {CollectiveSuite::kMv2, 5, 1048576, 0xc1b4ab4cee175b4bULL},
    {CollectiveSuite::kMv2, 8, 8, 0xa786e0eadf8a1869ULL},
    {CollectiveSuite::kMv2, 8, 4096, 0x3194cbc0073dfafeULL},
    {CollectiveSuite::kMv2, 8, 65536, 0x78053cd79899bbc1ULL},
    {CollectiveSuite::kMv2, 8, 1048576, 0x71446893b00f17c0ULL},
    {CollectiveSuite::kOmpiBasic, 3, 8, 0xad2a8cdced89aa2dULL},
    {CollectiveSuite::kOmpiBasic, 3, 4096, 0x676fffbc05f4d64aULL},
    {CollectiveSuite::kOmpiBasic, 3, 65536, 0x1f3ddfc36a637dbcULL},
    {CollectiveSuite::kOmpiBasic, 3, 1048576, 0xa60d47b165dd3308ULL},
    {CollectiveSuite::kOmpiBasic, 4, 8, 0x6ba85d798c5e63edULL},
    {CollectiveSuite::kOmpiBasic, 4, 4096, 0xbee0aa9c13f9385cULL},
    {CollectiveSuite::kOmpiBasic, 4, 65536, 0x880715790789cdd1ULL},
    {CollectiveSuite::kOmpiBasic, 4, 1048576, 0xf6f8f1a349a58426ULL},
    {CollectiveSuite::kOmpiBasic, 5, 8, 0x81b249f27b1a5a77ULL},
    {CollectiveSuite::kOmpiBasic, 5, 4096, 0xe852d71f0e90c104ULL},
    {CollectiveSuite::kOmpiBasic, 5, 65536, 0xddf5614553aa0478ULL},
    {CollectiveSuite::kOmpiBasic, 5, 1048576, 0xcaea6accc2a2dd9cULL},
    {CollectiveSuite::kOmpiBasic, 8, 8, 0x67145dac96866143ULL},
    {CollectiveSuite::kOmpiBasic, 8, 4096, 0xa9997e56bd4b2f65ULL},
    {CollectiveSuite::kOmpiBasic, 8, 65536, 0x4fe31e7e3252e0b4ULL},
    {CollectiveSuite::kOmpiBasic, 8, 1048576, 0xaed7fbb3a502f3b8ULL},
    {CollectiveSuite::kHier, 3, 8, 0xb9c9e98c87857054ULL},
    {CollectiveSuite::kHier, 3, 4096, 0x5834b130fe63eb1dULL},
    {CollectiveSuite::kHier, 3, 65536, 0xca4be6a832e81308ULL},
    {CollectiveSuite::kHier, 3, 1048576, 0xe5fa737c0296c28fULL},
    {CollectiveSuite::kHier, 4, 8, 0x6aecf904f1d8e582ULL},
    {CollectiveSuite::kHier, 4, 4096, 0x7149f426952853c7ULL},
    {CollectiveSuite::kHier, 4, 65536, 0xd990ffe0b39f1654ULL},
    {CollectiveSuite::kHier, 4, 1048576, 0x8d9875842adc3144ULL},
    {CollectiveSuite::kHier, 5, 8, 0x85700047f64b4d86ULL},
    {CollectiveSuite::kHier, 5, 4096, 0x91d35845d5cc308fULL},
    {CollectiveSuite::kHier, 5, 65536, 0x6468517a7d98434bULL},
    {CollectiveSuite::kHier, 5, 1048576, 0x8ba5abfa9acdb0d3ULL},
    {CollectiveSuite::kHier, 8, 8, 0x56c708080eb2de27ULL},
    {CollectiveSuite::kHier, 8, 4096, 0x2d14aea8201f465fULL},
    {CollectiveSuite::kHier, 8, 65536, 0x922fb51ec42c79b5ULL},
    {CollectiveSuite::kHier, 8, 1048576, 0xac1767fbf04659d8ULL},
};

std::uint64_t fnv1a(std::uint64_t h, std::int64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Every blocking collective once, with non-zero roots, then one dup and
/// one split; returns the caller's virtual time after each.
std::vector<std::int64_t> shape_ops(Comm& world, std::size_t size) {
  const int n = world.size();
  const int me = world.rank();
  const auto un = static_cast<std::size_t>(n);
  std::vector<std::int64_t> t;
  auto stamp = [&] { t.push_back(world.vtime_ns()); };

  const std::size_t count = std::max<std::size_t>(1, size / sizeof(double));
  const std::size_t per = std::max<std::size_t>(1, count / un);
  const std::size_t bpr = std::max<std::size_t>(1, size / un);
  std::vector<double> dsend(count, me + 1.0), drecv(count);
  std::vector<double> rs_in(per * un, 1.0);
  std::vector<std::byte> buf(size), blocks_in(bpr * un), blocks_out(bpr * un);

  world.barrier();
  stamp();
  world.bcast(buf.data(), size, 1);
  stamp();
  world.reduce(dsend.data(), drecv.data(), count, BasicKind::kDouble,
               ReduceOp::kSum, n - 1);
  stamp();
  world.allreduce(dsend.data(), drecv.data(), count, BasicKind::kDouble,
                  ReduceOp::kSum);
  stamp();
  world.reduce_scatter_block(rs_in.data(), drecv.data(), per,
                             BasicKind::kDouble, ReduceOp::kSum);
  stamp();
  world.scan(dsend.data(), drecv.data(), count, BasicKind::kDouble,
             ReduceOp::kSum);
  stamp();
  world.gather(blocks_in.data(), bpr, blocks_out.data(), 2);
  stamp();
  world.scatter(blocks_in.data(), bpr, blocks_out.data(), 1);
  stamp();
  world.allgather(blocks_in.data(), bpr, blocks_out.data());
  stamp();
  world.alltoall(blocks_in.data(), bpr, blocks_out.data());
  stamp();

  // Vectored: rank r's block is bpr + r bytes; alltoallv pairs vary too.
  std::vector<std::size_t> counts(un), displs(un);
  std::size_t total = 0;
  for (std::size_t r = 0; r < un; ++r) {
    counts[r] = bpr + r;
    displs[r] = total;
    total += counts[r];
  }
  const auto mi = static_cast<std::size_t>(me);
  std::vector<std::byte> vin(total), vout(total);
  world.gatherv(vin.data(), counts[mi], vout.data(), counts, displs, n - 1);
  stamp();
  world.scatterv(vout.data(), counts, displs, vin.data(), counts[mi], 1);
  stamp();
  world.allgatherv(vin.data(), counts[mi], vout.data(), counts, displs);
  stamp();
  std::vector<std::size_t> sc(un), sd(un), rc(un), rd(un);
  std::size_t st = 0, rt = 0;
  for (std::size_t r = 0; r < un; ++r) {
    sc[r] = bpr + (mi + r) % 3;
    sd[r] = st;
    st += sc[r];
    rc[r] = bpr + (r + mi) % 3;
    rd[r] = rt;
    rt += rc[r];
  }
  std::vector<std::byte> ain(st), aout(rt);
  world.alltoallv(ain.data(), sc, sd, aout.data(), rc, rd);
  stamp();

  const Comm dup = world.dup();
  stamp();
  const Comm half = world.split(me % 2, -me);
  stamp();
  return t;
}

TEST(ScheduleShapeTest, DetClockVirtualTimesMatchParent) {
  const CollectiveSuite suites[] = {CollectiveSuite::kMv2,
                                    CollectiveSuite::kOmpiBasic,
                                    CollectiveSuite::kHier};
  const char* names[] = {"kMv2", "kOmpiBasic", "kHier"};
  std::vector<ShapeCase> got;
  for (std::size_t s = 0; s < 3; ++s) {
    for (const int n : {3, 4, 5, 8}) {
      for (const std::size_t size : {std::size_t{8}, std::size_t{4096},
                                     std::size_t{65536},
                                     std::size_t{1} << 20}) {
        UniverseConfig cfg;
        cfg.world_size = n;
        cfg.suite = suites[s];
        cfg.deterministic_clock = true;
        cfg.fabric.ranks_per_node = 1;
        cfg.obs = obs::ObsConfig{};
        std::vector<std::vector<std::int64_t>> traces(
            static_cast<std::size_t>(n));
        Universe::launch(cfg, [&](Comm& world) {
          traces[static_cast<std::size_t>(world.rank())] =
              shape_ops(world, size);
        });
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const auto& tr : traces)
          for (const std::int64_t v : tr) h = fnv1a(h, v);
        got.push_back({suites[s], n, size, h});
        const ShapeCase* want = nullptr;
        for (const ShapeCase& c : kShapeTable) {
          if (c.suite == suites[s] && c.ranks == n && c.size == size)
            want = &c;
        }
        EXPECT_TRUE(want != nullptr && want->hash == h)
            << names[s] << " n=" << n << " size=" << size << " hash 0x"
            << std::hex << h;
      }
    }
  }
  if (HasFailure()) {
    std::ostringstream table;
    for (const ShapeCase& c : got) {
      const std::size_t s = c.suite == CollectiveSuite::kMv2         ? 0
                            : c.suite == CollectiveSuite::kOmpiBasic ? 1
                                                                     : 2;
      table << "    {CollectiveSuite::" << names[s] << ", " << c.ranks
            << ", " << c.size << ", 0x" << std::hex << c.hash << std::dec
            << "ULL},\n";
    }
    ADD_FAILURE() << "measured table:\n" << table.str();
  }
}

}  // namespace
}  // namespace jhpc::minimpi
