// The four workloads. Each is a closed loop: the timing rank (or the
// service client) issues its next operation only after the previous one
// completed. The rank workloads run in blocks; a block is one
// Universe::run of one series at one size, and a round visits every
// block once in a seeded order. Runs end on a round boundary, so every
// run measures the same mix of series and sizes.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "jhpc/jhpcd/jhpcd.hpp"

namespace pb {
namespace {

namespace jhpcd = jhpc::jhpcd;

constexpr int kTagData = 1;
constexpr int kTagAck = 2;
constexpr int kTagHalo = 3;
constexpr int kTagSync = 4;
constexpr int kRateWindows = 8;

// --- Shared plumbing ----------------------------------------------------------

/// Run `run(block, block_number)` over seeded rounds of `blocks` until
/// `seconds` have passed, finishing the round in progress. Block numbers
/// are unique per salt.
template <class B, class F>
void run_rounds(std::uint64_t seed, std::uint64_t salt, std::vector<B> blocks,
                double seconds, F&& run) {
  auto rng = rng_for(seed, salt);
  const std::int64_t deadline =
      jhpc::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t n = 0;
  do {
    std::shuffle(blocks.begin(), blocks.end(), rng);
    for (const B& b : blocks) run(b, (salt << 32) | n++);
  } while (jhpc::now_ns() < deadline);
}

/// Run `body` on every rank of `uni` with a per-rank Phase, then merge
/// the ranks' phases and the Universe's slab counters into `ph`.
void run_block(minimpi::Universe& uni, Phase& ph,
               const std::function<void(minimpi::Comm&, Phase&)>& body) {
  std::vector<Phase> per(static_cast<std::size_t>(uni.config().world_size));
  uni.run([&](minimpi::Comm& w) {
    body(w, per[static_cast<std::size_t>(w.rank())]);
  });
  for (const Phase& p : per) ph.merge(p);
  const minimpi::SlabStats s = uni.slab_stats();
  ph.slab_hits += s.hits;
  ph.slab_misses += s.misses;
}

/// Release every rank at once, over point-to-point messages only (the
/// small-message workload must not reach the collectives).
void handshake(const minimpi::Comm& w) {
  std::uint64_t token = 0;
  if (w.rank() == 0) {
    for (int r = 1; r < w.size(); ++r)
      w.recv(&token, sizeof(token), r, kTagSync);
    for (int r = 1; r < w.size(); ++r)
      w.send(&token, sizeof(token), r, kTagSync);
  } else {
    w.send(&token, sizeof(token), 0, kTagSync);
    w.recv(&token, sizeof(token), 0, kTagSync);
  }
}

std::uint64_t stamp_of(std::uint64_t base, std::int64_t i) {
  return mix64(base + static_cast<std::uint64_t>(i + (1 << 20)));
}

SlotKind kind_of(Series s) {
  return s.arrays ? SlotKind::kArray : SlotKind::kBuffer;
}

/// One set-up from nothing: a Universe, its rank threads, each rank's
/// port, and whatever `build` adds; the ranks then meet. Returns the
/// seconds until rank 0 could issue its first timed op.
double timed_setup(Series series, int ranks, int ppn,
                   const std::function<void(Port&)>& build) {
  const std::int64_t t0 = jhpc::now_ns();
  std::int64_t ready = 0;
  {
    minimpi::Universe uni(universe_config(series.lib, ranks, ppn));
    uni.run([&](minimpi::Comm& w) {
      auto port = make_port(series, w);
      build(*port);
      handshake(w);
      if (w.rank() == 0) ready = jhpc::now_ns();
    });
  }
  return static_cast<double>(ready - t0) * 1e-9;
}

// --- Point-to-point bodies ----------------------------------------------------

/// osu_latency shape: rank 0 times send+recv of a stamped payload and
/// checks the echo; the sample is half the round trip.
void pingpong_body(Port& p, SlotKind kind, std::size_t bytes, int suite,
                   int cls, std::uint64_t base, int iters, int warm, Phase& ph) {
  const int s0 = p.add_slot(bytes, kind);
  const int s1 = p.add_slot(bytes, kind);
  std::unique_ptr<RankLoop> loop;
  for (int it = -warm; it < iters; ++it) {
    if (it == 0) loop = std::make_unique<RankLoop>(p);
    if (p.rank() == 0) {
      const std::uint64_t stamp = stamp_of(base, it);
      {
        Scope s(Layer::kBench, Call::kFill, bytes);
        fill_pattern(p.data(s0), bytes, stamp);
      }
      const std::int64_t t0 = jhpc::now_ns();
      {
        Scope op(Layer::kOp, Call::kPingpong, bytes, suite);
        p.send(s0, bytes, 1, kTagData);
        p.recv(s1, bytes, 1, kTagData);
      }
      const std::int64_t t1 = jhpc::now_ns();
      bool ok = false;
      {
        Scope s(Layer::kBench, Call::kVerify, bytes);
        ok = check_pattern(p.data(s1), bytes, stamp);
      }
      if (it >= 0) {
        ph.add_op(cls, static_cast<double>(t1 - t0) / 2);
        ++ph.attempted;
        if (!ok) ++ph.failed;
      }
    } else {
      Scope op(Layer::kOp, Call::kPeer, bytes, suite);
      p.recv(s0, bytes, 0, kTagData);
      p.send(s0, bytes, 0, kTagData);
    }
  }
  loop->end(ph, static_cast<std::uint64_t>(iters));
}

/// osu_mbw_mr shape: rank 0 posts a window of nonblocking sends of
/// distinct stamped payloads, waits, and takes an ack; rank 1 receives
/// the window, acks, then checks every message.
void stream_body(Port& p, SlotKind kind, std::size_t bytes, int suite,
                 int cls, std::uint64_t base, int window, int windows, int warm,
                 Phase& ph) {
  std::vector<int> slots;
  for (int i = 0; i < window; ++i) slots.push_back(p.add_slot(bytes, kind));
  const int ack = p.add_slot(8, kind);
  std::unique_ptr<RankLoop> loop;
  Phase::Tput chunk;  // throughput is sampled every kRateWindows windows
  for (int w = -warm; w < windows; ++w) {
    if (w == 0) loop = std::make_unique<RankLoop>(p);
    const std::int64_t first = static_cast<std::int64_t>(w) * window;
    if (p.rank() == 0) {
      {
        Scope s(Layer::kBench, Call::kFill, bytes);
        for (int i = 0; i < window; ++i)
          fill_pattern(p.data(slots[static_cast<std::size_t>(i)]), bytes,
                       stamp_of(base, first + i));
      }
      const std::int64_t t0 = jhpc::now_ns();
      {
        Scope op(Layer::kOp, Call::kStream, bytes, suite);
        for (int s : slots) p.isend(s, bytes, 1, kTagData);
        p.wait_all();
        p.recv(ack, 8, 1, kTagAck);
      }
      const std::int64_t t1 = jhpc::now_ns();
      if (w >= 0) {
        chunk.ops += window;
        chunk.ns += static_cast<double>(t1 - t0);
        ph.payload_bytes += static_cast<double>(bytes) * window;
        if ((w + 1) % kRateWindows == 0 || w + 1 == windows) {
          ph.add_rate(cls, chunk.ops, chunk.ns);
          chunk = Phase::Tput{};
        }
      }
    } else {
      {
        Scope op(Layer::kOp, Call::kPeer, bytes, suite);
        for (int s : slots) p.irecv(s, bytes, 0, kTagData);
        p.wait_all();
        p.send(ack, 8, 0, kTagAck);
      }
      Scope s(Layer::kBench, Call::kVerify, bytes);
      for (int i = 0; i < window; ++i) {
        const bool ok = check_pattern(p.data(slots[static_cast<std::size_t>(i)]),
                                      bytes, stamp_of(base, first + i));
        if (w >= 0) {
          ++ph.attempted;
          if (!ok) ++ph.failed;
        }
      }
    }
  }
  loop->end(ph, static_cast<std::uint64_t>(windows));
}

/// A series as the blocks run it: one of the paper's four, or (traced
/// runs) the native library on one collective suite.
struct SeriesBlock {
  Series series;
  int suite = 0;
  int index = 0;  // position in paper_series(); 4 + suite for native
  /// Op class of this series at variant `k` (a size or collective kind).
  int cls(int k) const { return index * 8 + k; }
};

std::vector<SeriesBlock> series_blocks(bool native, bool need_nonblocking_arrays) {
  std::vector<SeriesBlock> out;
  if (native) {
    out.push_back({{Lib::kNative, false}, 0, 4});
    out.push_back({{Lib::kNative, false}, 1, 5});
    return out;
  }
  for (std::size_t i = 0; i < paper_series().size(); ++i) {
    const Series& s = paper_series()[i];
    // Open MPI-J has no array form of iSend/iRecv (the paper's bandwidth
    // figures have no Open MPI-J arrays series for that reason).
    if (need_nonblocking_arrays && s.lib == Lib::kOmpij && s.arrays) continue;
    out.push_back({s, suite_of(s), static_cast<int>(i)});
  }
  return out;
}

Lib lib_of_suite(int suite) { return suite == 1 ? Lib::kOmpij : Lib::kMv2j; }

// --- p2p_small ------------------------------------------------------------------

struct P2pBlock {
  SeriesBlock sb;
  bool stream = false;
  std::size_t bytes = 0;
  int size_index = 0;
};

/// Wall ns per 8-byte message of the native windowed stream, on the
/// real clock (CPU-time passthrough on) or the deterministic clock.
double stream_ns_per_msg(bool det_clock) {
  minimpi::UniverseConfig cfg = universe_config(Lib::kMv2j, 2, 0);
  cfg.deterministic_clock = det_clock;
  minimpi::Universe uni(cfg);
  std::vector<double> per;
  for (int rep = 0; rep < 5; ++rep) {
    Phase ph;
    run_block(uni, ph, [&](minimpi::Comm& world, Phase& rp) {
      auto port = make_port({Lib::kNative, false}, world);
      stream_body(*port, SlotKind::kBuffer, 8, 0, 0, mix64(rep), 64, 50, 2, rp);
    });
    per.push_back(1e9 / ph.rate_per_s());
  }
  return median(per);
}

/// Virtual one-way latency of an 8-byte native pingpong on the
/// deterministic clock: modelled costs only, so the same on every run
/// unless the network model changes.
double det_one_way_ns() {
  minimpi::UniverseConfig cfg = universe_config(Lib::kMv2j, 2, 0);
  cfg.deterministic_clock = true;
  minimpi::Universe uni(cfg);
  constexpr int kIters = 1000;
  double out = 0;
  uni.run([&](minimpi::Comm& world) {
    std::uint64_t x = 0;
    const std::int64_t v0 = world.vtime_ns();
    for (int i = 0; i < kIters; ++i) {
      if (world.rank() == 0) {
        world.send(&x, 8, 1, kTagData);
        world.recv(&x, 8, 1, kTagData);
      } else {
        world.recv(&x, 8, 0, kTagData);
        world.send(&x, 8, 0, kTagData);
      }
    }
    if (world.rank() == 0)
      out = static_cast<double>(world.vtime_ns() - v0) / (2.0 * kIters);
  });
  return out;
}

constexpr int kP2pIters = 1500;
constexpr int kP2pWarm = 100;
constexpr int kP2pWindow = 64;
constexpr int kP2pWindows = 60;

}  // namespace

Workload make_p2p_small(const Args& args) {
  struct State {
    std::unique_ptr<minimpi::Universe> uni[2];
  };
  auto st = std::make_shared<State>();
  const std::vector<std::size_t> sizes = {8, 256, 4096};
  Workload w;
  w.name = "p2p_small";
  w.sizes = sizes;
  w.probe_config = universe_config(Lib::kMv2j, 2, 0);
  w.setup_once = [](int rep) {
    const Series s = paper_series()[static_cast<std::size_t>(rep) % 4];
    return timed_setup(s, 2, 0, [s](Port& p) {
      for (int i = 0; i <= kP2pWindow; ++i) p.add_slot(4096, kind_of(s));
    });
  };
  w.prepare = [st] {
    for (int s = 0; s < 2; ++s)
      st->uni[s] = std::make_unique<minimpi::Universe>(
          universe_config(lib_of_suite(s), 2, 0));
  };
  w.measure = [st, sizes, seed = args.seed](double seconds, bool native,
                                            std::uint64_t salt, Phase& ph) {
    std::vector<P2pBlock> blocks;
    for (const SeriesBlock& sb : series_blocks(native, false)) {
      for (std::size_t i = 0; i < sizes.size(); ++i) {
        const int k = static_cast<int>(i);
        blocks.push_back({sb, false, sizes[i], k});
        if (!(sb.series.lib == Lib::kOmpij && sb.series.arrays))
          blocks.push_back({sb, true, sizes[i], k});
      }
    }
    run_rounds(seed, salt, blocks, seconds,
               [&](const P2pBlock& b, std::uint64_t n) {
                 const std::uint64_t base = mix64(seed ^ mix64(n + 1));
                 run_block(*st->uni[b.sb.suite], ph,
                           [&](minimpi::Comm& world, Phase& rp) {
                             auto port = make_port(b.sb.series, world);
                             const SlotKind kind = kind_of(b.sb.series);
                             if (b.stream) {
                               stream_body(*port, kind, b.bytes, b.sb.suite,
                                           b.sb.cls(b.size_index), base,
                                           kP2pWindow, kP2pWindows, 2, rp);
                             } else {
                               pingpong_body(*port, kind, b.bytes, b.sb.suite,
                                             b.sb.cls(b.size_index), base,
                                             kP2pIters, kP2pWarm, rp);
                             }
                           });
               });
  };
  w.named_metrics = [](const Phase& ph) {
    return std::vector<Metric>{
        {"lat_p50_us", ph.op_p50_typical() / 1e3, "us"},
        {"lat_p90_us", ph.op_percentile(90) / 1e3, "us"},
        {"lat_samples", static_cast<double>(ph.op_samples()), "count"},
        {"msg_rate_kps", ph.rate_per_s() / 1e3, "kmsg/s"},
        {"stream_msgs", ph.tput_total().ops, "count"},
    };
  };
  w.named_layers = [](const Phase&, const TraceData&) {
    return std::vector<Metric>{
        {"vclock.ns_per_msg", stream_ns_per_msg(false) - stream_ns_per_msg(true), "ns"},
        {"netsim.vlat_det_ns", det_one_way_ns(), "ns"},
    };
  };
  return w;
}

// --- bulk ---------------------------------------------------------------------

namespace {

struct BulkBlock {
  SeriesBlock sb;
  bool coll = false;
  bool allreduce = false;  // coll: allReduce, else bcast
  std::size_t bytes = 0;
  int variant = 0;         // stream: size index; coll: 0 bcast, 1 allReduce
};

constexpr std::size_t kCollBytes = 1u << 20;
constexpr int kCollCalls = 12;
constexpr std::size_t kBulkBlockBytes = 32u << 20;

int bulk_window(std::size_t bytes) {
  return bytes <= (64u << 10) ? 16 : bytes <= (1u << 20) ? 4 : 2;
}

/// One timed collective per iteration: every rank fills, all meet at a
/// native barrier, rank 0 times the call, every rank checks the result
/// (bcast against the root's stamp, allReduce against the serial sum).
void coll_body(Port& p, SlotKind kind, bool allreduce, std::size_t bytes,
               int suite, int cls, std::uint64_t base, int calls, Phase& ph) {
  const int in = p.add_slot(bytes, kind);
  const int out = p.add_slot(bytes, kind);
  const std::size_t n = bytes / 8;
  const double ranks = p.size();
  const double rank_sum = ranks * (ranks - 1) / 2;
  auto rng = rng_for(base, 7);
  std::unique_ptr<RankLoop> loop;
  for (int c = -1; c < calls; ++c) {
    if (c == 0) loop = std::make_unique<RankLoop>(p);
    const std::uint64_t stamp = stamp_of(base, c);
    const int root = static_cast<int>(rng() % static_cast<std::uint64_t>(p.size()));
    {
      Scope s(Layer::kBench, Call::kFill, bytes);
      if (allreduce) {
        double* d = reinterpret_cast<double*>(p.data(in));
        for (std::size_t i = 0; i < n; ++i)
          d[i] = reduce_value(stamp, i) + p.rank();
      } else if (p.rank() == root) {
        fill_pattern(p.data(in), bytes, stamp);
      } else {
        std::memset(p.data(in), 0, bytes);
      }
    }
    p.world().barrier();
    const std::int64_t t0 = jhpc::now_ns();
    {
      Scope op(Layer::kOp, p.rank() == 0 ? Call::kColl : Call::kPeer, bytes,
               suite);
      if (allreduce) {
        p.allreduce_sum(in, out, bytes);
      } else {
        p.bcast(in, bytes, root);
      }
    }
    const std::int64_t t1 = jhpc::now_ns();
    bool ok = true;
    {
      Scope s(Layer::kBench, Call::kVerify, bytes);
      if (allreduce) {
        const double* d = reinterpret_cast<const double*>(p.data(out));
        for (std::size_t i = 0; i < n; ++i)
          ok &= d[i] == ranks * reduce_value(stamp, i) + rank_sum;
      } else {
        ok = check_pattern(p.data(in), bytes, stamp);
      }
    }
    if (c >= 0) {
      ++ph.attempted;
      if (!ok) ++ph.failed;
      if (p.rank() == 0) ph.add_op(cls, static_cast<double>(t1 - t0));
    }
  }
  loop->end(ph, static_cast<std::uint64_t>(calls));
}

}  // namespace

Workload make_bulk(const Args& args) {
  struct State {
    std::unique_ptr<minimpi::Universe> pair[2];  // 2 ranks, 2 nodes
    std::unique_ptr<minimpi::Universe> quad[2];  // 4 ranks, ppn 2
  };
  auto st = std::make_shared<State>();
  const std::vector<std::size_t> sizes = {64u << 10, 1u << 20, 4u << 20};
  Workload w;
  w.name = "bulk";
  w.sizes = sizes;
  w.probe_config = universe_config(Lib::kMv2j, 4, 2);
  w.setup_once = [](int rep) {
    const Series s = paper_series()[static_cast<std::size_t>(rep) % 4];
    return timed_setup(s, 4, 2, [s](Port& p) {
      p.add_slot(kCollBytes, kind_of(s));
      p.add_slot(kCollBytes, kind_of(s));
    });
  };
  w.prepare = [st] {
    for (int s = 0; s < 2; ++s) {
      st->pair[s] = std::make_unique<minimpi::Universe>(
          universe_config(lib_of_suite(s), 2, 1));
      st->quad[s] = std::make_unique<minimpi::Universe>(
          universe_config(lib_of_suite(s), 4, 2));
    }
  };
  w.measure = [st, sizes, seed = args.seed](double seconds, bool native,
                                            std::uint64_t salt, Phase& ph) {
    std::vector<BulkBlock> blocks;
    for (const SeriesBlock& sb : series_blocks(native, true))
      for (std::size_t i = 0; i < sizes.size(); ++i)
        blocks.push_back({sb, false, false, sizes[i], static_cast<int>(i)});
    for (const SeriesBlock& sb : series_blocks(native, false))
      for (bool ar : {false, true})
        blocks.push_back({sb, true, ar, kCollBytes, ar ? 1 : 0});
    run_rounds(seed, salt, blocks, seconds,
               [&](const BulkBlock& b, std::uint64_t n) {
                 const std::uint64_t base = mix64(seed ^ mix64(n + 1));
                 minimpi::Universe& uni =
                     b.coll ? *st->quad[b.sb.suite] : *st->pair[b.sb.suite];
                 run_block(uni, ph, [&](minimpi::Comm& world, Phase& rp) {
                   auto port = make_port(b.sb.series, world);
                   const SlotKind kind = kind_of(b.sb.series);
                   if (b.coll) {
                     coll_body(*port, kind, b.allreduce, b.bytes, b.sb.suite,
                               b.sb.cls(b.variant), base, kCollCalls, rp);
                   } else {
                     const int window = bulk_window(b.bytes);
                     const int windows = static_cast<int>(
                         kBulkBlockBytes / (b.bytes * static_cast<std::size_t>(window)));
                     stream_body(*port, kind, b.bytes, b.sb.suite,
                                 b.sb.cls(b.variant), base, window, windows, 1,
                                 rp);
                   }
                 });
               });
  };
  w.named_metrics = [](const Phase& ph) {
    return std::vector<Metric>{
        {"bw_MBps", ph.payload_bytes / ph.tput_total().ns * 1e3, "MB/s"},
        {"bytes_moved_computed_MiB", ph.payload_bytes / (1 << 20), "MiB"},
        {"coll_p50_us", ph.op_p50_typical() / 1e3, "us"},
        {"coll_p90_us", ph.op_percentile(90) / 1e3, "us"},
        {"coll_samples", static_cast<double>(ph.op_samples()), "count"},
    };
  };
  w.named_layers = [](const Phase&, const TraceData&) {
    return std::vector<Metric>{};
  };
  return w;
}

// --- cg_app -------------------------------------------------------------------------

namespace {

constexpr int kCgLocalRows = 96;
constexpr int kCgRhs = 4;
constexpr int kCgSolvesPerBlock = 10;
constexpr double kCgRelTol = 1e-8;

/// The manufactured solution of right-hand side k at global row g.
double cg_x_true(std::uint64_t seed, int k, long long g) {
  const std::uint64_t h = mix64(seed ^ mix64(static_cast<std::uint64_t>(k) << 32 ^
                                             static_cast<std::uint64_t>(g)));
  return static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0;
}

/// One rank's CG state over a Port: halo exchange on ByteBuffer slots,
/// dot products through 8-byte array allReduces, as in
/// examples/cg_poisson.
class CgRank {
 public:
  CgRank(Port& p, std::uint64_t seed)
      : p_(p), seed_(seed), n_(kCgLocalRows),
        up_(p.rank() > 0 ? p.rank() - 1 : -1),
        down_(p.rank() + 1 < p.size() ? p.rank() + 1 : -1) {
    su_ = p.add_slot(8, SlotKind::kBuffer);
    sd_ = p.add_slot(8, SlotKind::kBuffer);
    ru_ = p.add_slot(8, SlotKind::kBuffer);
    rd_ = p.add_slot(8, SlotKind::kBuffer);
    din_ = p.add_slot(8, SlotKind::kArray);
    dout_ = p.add_slot(8, SlotKind::kArray);
    const long long global = static_cast<long long>(n_) * p.size();
    for (int k = 0; k < kCgRhs; ++k) {
      std::vector<double> xt(n_), b(n_);
      for (int i = 0; i < n_; ++i) {
        const long long g = static_cast<long long>(p.rank()) * n_ + i;
        xt[static_cast<std::size_t>(i)] = cg_x_true(seed_, k, g);
      }
      for (int i = 0; i < n_; ++i) {
        const long long g = static_cast<long long>(p.rank()) * n_ + i;
        const double left = g > 0 ? cg_x_true(seed_, k, g - 1) : 0.0;
        const double right = g + 1 < global ? cg_x_true(seed_, k, g + 1) : 0.0;
        b[static_cast<std::size_t>(i)] = 2.0 * xt[static_cast<std::size_t>(i)] - left - right;
      }
      x_true_.push_back(std::move(xt));
      rhs_.push_back(std::move(b));
    }
  }

  /// Solve A x = b_k from x = 0; returns the iteration count.
  int solve(int k, std::vector<double>& x) {
    const auto n = static_cast<std::size_t>(n_);
    const std::vector<double>& b = rhs_[static_cast<std::size_t>(k)];
    x.assign(n, 0.0);
    std::vector<double> r = b, p = b, ap(n);
    double rr = dot(r, r);
    const double rr0 = rr;
    int it = 0;
    const int max_iters = 8 * n_ * p_.size();
    while (rr > 1e-24 * rr0 && it < max_iters) {
      matvec(p, ap);
      const double alpha = rr / dot(p, ap);
      double rr_local = 0;
      {
        Scope s(Layer::kBench, Call::kCompute, n * 8);
        for (std::size_t i = 0; i < n; ++i) {
          x[i] += alpha * p[i];
          r[i] -= alpha * ap[i];
          rr_local += r[i] * r[i];
        }
      }
      const double rr_new = reduce(rr_local);
      const double beta = rr_new / rr;
      {
        Scope s(Layer::kBench, Call::kCompute, n * 8);
        for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
      }
      rr = rr_new;
      ++it;
    }
    return it;
  }

  /// Relative error of x against the manufactured solution, reduced
  /// over the native communicator (verification, not timed).
  double rel_error(int k, const std::vector<double>& x) const {
    const std::vector<double>& xt = x_true_[static_cast<std::size_t>(k)];
    double local[2] = {0, 0}, global[2] = {0, 0};
    for (std::size_t i = 0; i < x.size(); ++i) {
      local[0] += (x[i] - xt[i]) * (x[i] - xt[i]);
      local[1] += xt[i] * xt[i];
    }
    p_.world().allreduce(local, global, 2, minimpi::BasicKind::kDouble,
                         minimpi::ReduceOp::kSum);
    return std::sqrt(global[0] / global[1]);
  }

 private:
  double dot(const std::vector<double>& a, const std::vector<double>& b) {
    double local = 0;
    {
      Scope s(Layer::kBench, Call::kCompute, a.size() * 8);
      for (std::size_t i = 0; i < a.size(); ++i) local += a[i] * b[i];
    }
    return reduce(local);
  }

  double reduce(double local) {
    std::memcpy(p_.data(din_), &local, 8);
    p_.allreduce_sum(din_, dout_, 8);
    double g = 0;
    std::memcpy(&g, p_.data(dout_), 8);
    return g;
  }

  void matvec(const std::vector<double>& v, std::vector<double>& y) {
    if (up_ >= 0) {
      p_.irecv(ru_, 8, up_, kTagHalo);
      std::memcpy(p_.data(su_), &v.front(), 8);
      p_.isend(su_, 8, up_, kTagHalo);
    }
    if (down_ >= 0) {
      p_.irecv(rd_, 8, down_, kTagHalo);
      std::memcpy(p_.data(sd_), &v.back(), 8);
      p_.isend(sd_, 8, down_, kTagHalo);
    }
    p_.wait_all();
    double ghost_up = 0, ghost_down = 0;
    if (up_ >= 0) std::memcpy(&ghost_up, p_.data(ru_), 8);
    if (down_ >= 0) std::memcpy(&ghost_down, p_.data(rd_), 8);
    Scope s(Layer::kBench, Call::kCompute, v.size() * 8);
    const std::size_t n = v.size();
    for (std::size_t i = 0; i < n; ++i) {
      const double left = i > 0 ? v[i - 1] : ghost_up;
      const double right = i + 1 < n ? v[i + 1] : ghost_down;
      y[i] = 2.0 * v[i] - left - right;
    }
  }

  Port& p_;
  std::uint64_t seed_;
  int n_;
  int up_, down_;
  int su_, sd_, ru_, rd_, din_, dout_;
  std::vector<std::vector<double>> x_true_, rhs_;
};

struct CgBlock {
  SeriesBlock sb;
};

}  // namespace

Workload make_cg_app(const Args& args) {
  struct State {
    std::unique_ptr<minimpi::Universe> uni[2];
    int ref_iters[2][kCgRhs] = {};
  };
  auto st = std::make_shared<State>();
  const std::uint64_t seed = args.seed;
  Workload w;
  w.name = "cg_app";
  w.sizes = {8};
  w.probe_config = universe_config(Lib::kMv2j, 4, 2);
  w.setup_once = [seed](int rep) {
    return timed_setup({rep % 2 ? Lib::kOmpij : Lib::kMv2j, false}, 4, 2,
                       [seed](Port& p) { CgRank cg(p, seed); });
  };
  // The reference iteration count of each right-hand side comes from a
  // solve through the native library of the same suite: the binding's
  // reductions run the same algorithm, so the count must match exactly.
  w.prepare = [st, seed] {
    for (int s = 0; s < 2; ++s) {
      st->uni[s] = std::make_unique<minimpi::Universe>(
          universe_config(lib_of_suite(s), 4, 2));
      st->uni[s]->run([&](minimpi::Comm& world) {
        auto port = make_port({Lib::kNative, false}, world);
        CgRank cg(*port, seed);
        std::vector<double> x;
        for (int k = 0; k < kCgRhs; ++k) {
          const int iters = cg.solve(k, x);
          if (cg.rel_error(k, x) >= kCgRelTol)
            throw std::runtime_error("cg reference solve did not converge");
          if (world.rank() == 0) st->ref_iters[s][k] = iters;
        }
      });
    }
  };
  w.measure = [st, seed](double seconds, bool native, std::uint64_t salt,
                         Phase& ph) {
    std::vector<CgBlock> blocks;
    for (const SeriesBlock& sb : series_blocks(native, false))
      if (!sb.series.arrays) blocks.push_back({sb});
    run_rounds(seed, salt, blocks, seconds,
               [&](const CgBlock& b, std::uint64_t n) {
                 run_block(*st->uni[b.sb.suite], ph,
                           [&](minimpi::Comm& world, Phase& rp) {
                   auto port = make_port(b.sb.series, world);
                   CgRank cg(*port, seed);
                   std::vector<double> x;
                   handshake(world);
                   RankLoop loop(*port);
                   double solves_ns = 0;
                   for (int i = 0; i < kCgSolvesPerBlock; ++i) {
                     const int k = static_cast<int>((n + static_cast<std::uint64_t>(i)) % kCgRhs);
                     world.barrier();
                     const std::int64_t t0 = jhpc::now_ns();
                     int iters = 0;
                     {
                       Scope op(Layer::kOp,
                                world.rank() == 0 ? Call::kSolve : Call::kPeer,
                                8, b.sb.suite);
                       iters = cg.solve(k, x);
                     }
                     const std::int64_t t1 = jhpc::now_ns();
                     const double rel = cg.rel_error(k, x);
                     ++rp.attempted;
                     if (rel >= kCgRelTol || iters != st->ref_iters[b.sb.suite][k])
                       ++rp.failed;
                     if (world.rank() == 0) {
                       rp.add_op(b.sb.cls(0), static_cast<double>(t1 - t0));
                       solves_ns += static_cast<double>(t1 - t0);
                       rp.iterations += static_cast<std::uint64_t>(iters);
                     }
                   }
                   loop.end(rp, kCgSolvesPerBlock);
                   if (world.rank() == 0)
                     rp.add_rate(b.sb.cls(0), kCgSolvesPerBlock, solves_ns);
                 });
               });
  };
  w.named_metrics = [](const Phase& ph) {
    return std::vector<Metric>{
        {"solve_s", ph.op_p50_typical() / 1e9, "s"},
        {"solve_p90_s", ph.op_percentile(90) / 1e9, "s"},
        {"solves", static_cast<double>(ph.op_samples()), "count"},
        {"iterations_per_solve",
         static_cast<double>(ph.iterations) / static_cast<double>(ph.op_samples()),
         "count"},
    };
  };
  w.named_layers = [](const Phase&, const TraceData&) {
    return std::vector<Metric>{};
  };
  return w;
}

// --- service_churn ------------------------------------------------------------------

namespace {

constexpr int kOutstanding = 4;
constexpr std::size_t kJobBytes = 64;
constexpr int kJobRoundTrips = 4;
constexpr std::size_t kHogBytes = 64u << 10;
constexpr int kHogWindow = 8;
constexpr int kHogWindows = 4;
constexpr std::int64_t kServiceSliceNs = 250'000'000;

/// What a job's ranks report back to the client.
struct JobOutcome {
  Phase rank[2];
};

jhpcd::ServiceConfig service_config() {
  jhpcd::ServiceConfig c;
  c.workers = 2;  // 2 concurrent 2-rank jobs: 4 rank threads
  c.queue_capacity = 64;
  c.pool_capacity = 8;
  c.per_job_pvars = false;
  return c;
}

jhpcd::JobSpec job_spec(Series series, bool hog, std::uint64_t stamp,
                        const std::shared_ptr<JobOutcome>& out) {
  jhpcd::JobSpec spec;
  spec.name = hog ? "hog" : "pingpong";
  spec.config = universe_config(series.lib == Lib::kOmpij ? Lib::kOmpij : Lib::kMv2j,
                                2, 0);
  spec.job_class = hog ? jhpcd::JobClass::kBandwidth : jhpcd::JobClass::kLatency;
  spec.rank_main = [series, hog, stamp, out](minimpi::Comm& world) {
    Phase& ph = out->rank[world.rank()];
    Scope op(Layer::kOp, world.rank() == 0 ? Call::kJob : Call::kPeer,
             hog ? kHogBytes : kJobBytes, suite_index(world.suite()));
    PortOptions opts;
    opts.heap_bytes = 4u << 20;  // a small tenant JVM
    auto port = make_port(series, world, opts);
    if (hog) {
      stream_body(*port, kind_of(series), kHogBytes, suite_index(world.suite()),
                  0, stamp, kHogWindow, kHogWindows, 0, ph);
    } else {
      pingpong_body(*port, kind_of(series), kJobBytes, suite_index(world.suite()),
                    0, stamp, kJobRoundTrips, 0, ph);
    }
  };
  return spec;
}

}  // namespace

Workload make_service_churn(const Args& args) {
  const std::uint64_t seed = args.seed;
  Workload w;
  w.name = "service_churn";
  w.sizes = {kJobBytes, kHogBytes};
  w.probe_config = universe_config(Lib::kMv2j, 2, 0);
  // Set-up: the fleet (workers + watchdog) and one job per worker, which
  // builds the first tenant Universes.
  w.setup_once = [](int rep) {
    const std::int64_t t0 = jhpc::now_ns();
    jhpcd::JobManager mgr(service_config());
    std::vector<jhpcd::JobHandle> hs;
    for (int i = 0; i < 2; ++i) {
      auto out = std::make_shared<JobOutcome>();
      hs.push_back(mgr.submit(job_spec(paper_series()[static_cast<std::size_t>(rep + i) % 4],
                                       false, mix64(static_cast<std::uint64_t>(rep)), out)));
    }
    for (auto& h : hs) h.await();
    return static_cast<double>(jhpc::now_ns() - t0) * 1e-9;
  };
  w.prepare = [] {};
  w.measure = [seed](double seconds, bool native, std::uint64_t salt,
                      Phase& ph) {
    jhpcd::JobManager mgr(service_config());
    auto rng = rng_for(seed, salt);
    struct Pending {
      jhpcd::JobHandle handle;
      std::shared_ptr<JobOutcome> out;
      bool hog;
      int cls;  // the series, for latency-class jobs
    };
    std::deque<Pending> pending;
    std::uint64_t seq = salt << 32;
    // Latency and throughput are summarised per fixed slice of the loop,
    // as the rank workloads summarise per block.
    Phase slice;
    auto submit = [&] {
      const bool hog = rng() % 8 == 0;
      Series s{Lib::kNative, false};
      int cls = 4;
      if (!native) {
        // Hogs stream with nonblocking calls, which Open MPI-J arrays lack.
        cls = static_cast<int>(rng() % (hog ? 3 : 4));
        s = paper_series()[static_cast<std::size_t>(cls)];
      }
      auto out = std::make_shared<JobOutcome>();
      jhpcd::JobHandle h;
      {
        Scope sc(Layer::kJhpcd, Call::kSubmit);
        h = mgr.submit(job_spec(s, hog, mix64(seed ^ mix64(++seq)), out));
      }
      pending.push_back({h, out, hog, cls});
    };
    auto complete = [&](bool timed) {
      Pending p = pending.front();
      pending.pop_front();
      const jhpcd::JobResult r = p.handle.await();
      if (!timed) return;
      ++ph.attempted;
      ++ph.jobs;
      Phase job;
      for (const Phase& rp : p.out->rank) job.merge(rp);
      if (r.state != jhpcd::JobState::kCompleted || job.failed > 0) ++ph.failed;
      ph.rank_cpu_ns += job.rank_cpu_ns;
      ph.rank_wall_ns += job.rank_wall_ns;
      ph.rank_ops += job.rank_ops;
      ph.jvm_ops += job.jvm_ops;
      ph.gc_collections += job.gc_collections;
      ph.gc_alloc_bytes += job.gc_alloc_bytes;
      ph.pool_requests += job.pool_requests;
      ph.pool_hits += job.pool_hits;
      ph.payload_bytes += job.payload_bytes;
      ph.queue_wait_ns += static_cast<double>(r.queue_wait_ns);
      ph.run_ns += static_cast<double>(r.run_ns);
      if (!p.hog) slice.add_op(p.cls, static_cast<double>(r.queue_wait_ns + r.run_ns));
    };
    // Warm the Universe pool, untimed.
    for (int i = 0; i < 8; ++i) {
      submit();
      if (pending.size() >= kOutstanding) complete(false);
    }
    while (!pending.empty()) complete(false);
    const jhpcd::ServiceStats s0 = mgr.stats();
    const std::int64_t t0 = jhpc::now_ns();
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t slice_start = t0;
    std::uint64_t slice_jobs = 0;
    auto end_slice = [&] {
      const std::int64_t now = jhpc::now_ns();
      slice.add_rate(0, static_cast<double>(ph.jobs - slice_jobs),
                     static_cast<double>(now - slice_start));
      ph.merge(slice);
      slice = Phase{};
      slice_start = now;
      slice_jobs = ph.jobs;
    };
    while (jhpc::now_ns() < deadline) {
      while (pending.size() < kOutstanding) submit();
      complete(true);
      if (jhpc::now_ns() - slice_start >= kServiceSliceNs) end_slice();
    }
    while (!pending.empty()) complete(true);
    end_slice();
    const jhpcd::ServiceStats s1 = mgr.stats();
    ph.universes_created += s1.universes_created - s0.universes_created;
    ph.universes_reused += s1.universes_reused - s0.universes_reused;
    ph.rejected += s1.rejected - s0.rejected;
  };
  w.named_metrics = [](const Phase& ph) {
    return std::vector<Metric>{
        {"jobs_per_s", ph.rate_per_s(), "jobs/s"},
        {"job_p50_ms", ph.op_p50_typical() / 1e6, "ms"},
        {"job_p90_ms", ph.op_percentile(90) / 1e6, "ms"},
        {"latency_jobs", static_cast<double>(ph.op_samples()), "count"},
    };
  };
  w.named_layers = [](const Phase& ph, const TraceData& td) {
    const double jobs = ph.jobs ? static_cast<double>(ph.jobs) : 1;
    const double pooled = static_cast<double>(ph.universes_created + ph.universes_reused);
    return std::vector<Metric>{
        {"jhpcd.submit_ns",
         mean_ns(td.traced, [](const Key& k) { return k.layer == Layer::kJhpcd; }),
         "ns"},
        {"jhpcd.queue_wait_us", ph.queue_wait_ns / jobs / 1e3, "us"},
        {"jhpcd.run_us", ph.run_ns / jobs / 1e3, "us"},
        {"jhpcd.reuse_ratio",
         pooled > 0 ? static_cast<double>(ph.universes_reused) / pooled : 0, "ratio"},
        {"jhpcd.rejected", static_cast<double>(ph.rejected), "count"},
    };
  };
  return w;
}

}  // namespace pb
