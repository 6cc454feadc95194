// The collective schedule engine (see detail/coll_nbc.hpp).
//
// Four parts: the BUILDERS, one per algorithm, that write one rank's
// rounds over participant indices; select(), which picks the builder for
// a call; the PROGRESS machinery that drives every active schedule of a
// rank from inside its waits; and the ENTRY points behind the blocking,
// nonblocking and typed collectives.
//
// Two suites of shapes model the two native libraries of the paper's
// evaluation:
//   mv2   — tuned algorithms in the style of MVAPICH2/MPICH: binomial
//           trees, scatter+ring-allgather broadcast, recursive doubling,
//           ring reduce-scatter/allgather, dissemination barrier,
//           pairwise alltoall. Threshold switches between latency- and
//           bandwidth-optimal shapes come from the Universe's config.
//   basic — flat linear algorithms in the style of an untuned baseline:
//           everything funnels through the root (rank 0 for rootless
//           operations), the serialisation the paper blames for Open
//           MPI's collective numbers relative to MVAPICH2's.

#include "detail/coll_nbc.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "detail/coll.hpp"
#include "detail/coll_hier.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi::detail {

using namespace std::chrono_literals;

void TypedStage::finish(const Datatype& type) {
  if (unpack_dst == nullptr) return;
  type.unpack(out.data(), unpack_dst, unpack_count);
  unpack_dst = nullptr;
}

namespace {

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }

int mod(int a, int n) { return ((a % n) + n) % n; }

/// A contiguous piece of one of a schedule's buffers.
struct Piece {
  NbcLoc at;
  std::size_t len = 0;
};

/// Writes one rank's rounds into a schedule. Steps join the open round
/// until round() closes it; a round's local steps run after all of its
/// communication completes. Scratch comes from a bump allocator.
class Plan {
 public:
  Plan(NbcState& st, int n, int me) : n(n), me(me), st_(st) {}

  const int n;   ///< participants
  const int me;  ///< my participant index

  void round() {
    const auto end = static_cast<std::uint32_t>(st_.steps.size());
    if (end > (st_.round_end.empty() ? 0 : st_.round_end.back()))
      st_.round_end.push_back(end);
  }
  void send(int peer, NbcLoc src, std::size_t bytes) {
    st_.steps.push_back(
        {.kind = NbcStepKind::kSend, .peer = peer, .src = src, .len = bytes});
  }
  void recv(int peer, NbcLoc dst, std::size_t bytes, bool deferred = false) {
    st_.steps.push_back({.kind = NbcStepKind::kRecv,
                         .deferred = deferred,
                         .peer = peer,
                         .dst = dst,
                         .len = bytes});
  }
  /// One round: receive from `from` while sending to `to`.
  void sendrecv(int to, Piece s, int from, Piece r) {
    round();
    recv(from, r.at, r.len);
    send(to, s.at, s.len);
  }
  void copy(NbcLoc src, NbcLoc dst, std::size_t bytes) {
    st_.steps.push_back(
        {.kind = NbcStepKind::kCopy, .src = src, .dst = dst, .len = bytes});
  }
  /// acc op= src, over `count` elements.
  void reduce(NbcLoc src, NbcLoc acc, std::size_t count) {
    st_.steps.push_back(
        {.kind = NbcStepKind::kReduce, .src = src, .dst = acc, .len = count});
  }
  NbcLoc scratch(std::size_t bytes) {
    const NbcLoc at{NbcBuf::kScratch, scratch_};
    scratch_ += bytes;
    return at;
  }
  std::size_t bytes(std::size_t count) const {
    return count * basic_size(st_.kind);
  }
  void finish() {
    round();
    st_.scratch.resize(scratch_);
  }

 private:
  NbcState& st_;
  std::size_t scratch_ = 0;
};

/// Byte range of piece k when `total` bytes split across `n` ranks as
/// evenly as possible, in units of `unit` bytes (element-aligned pieces
/// keep reductions typed).
Piece piece_of(NbcLoc base, std::size_t total, int n, int k,
               std::size_t unit = 1) {
  const std::size_t units = total / unit;
  const auto s = static_cast<std::size_t>(n);
  const auto i = static_cast<std::size_t>(k);
  const std::size_t first = units * i / s;
  const std::size_t last = units * (i + 1) / s;
  return {base + first * unit, (last - first) * unit};
}

/// Ring allgather over n blocks, rank `me` starting with block `me`: in
/// step s pass the block obtained s steps ago to the right and take the
/// next from the left (n - 1 sendrecv rounds).
template <typename BlockOf>
void ring_allgather(Plan& p, BlockOf block_of) {
  for (int s = 0; s < p.n - 1; ++s) {
    p.sendrecv(mod(p.me + 1, p.n), block_of(mod(p.me - s, p.n)),
               mod(p.me - 1, p.n), block_of(mod(p.me - s - 1, p.n)));
  }
}

/// Pairwise exchange: in round s trade with (me + s) / (me - s).
template <typename SendOf, typename RecvOf>
void exchange_pairwise(Plan& p, SendOf send_of, RecvOf recv_of) {
  for (int s = 1; s < p.n; ++s) {
    const int dst = mod(p.me + s, p.n);
    const int src = mod(p.me - s, p.n);
    p.sendrecv(dst, send_of(dst), src, recv_of(src));
  }
}

/// Linear exchange: post every receive at once (awaited when the
/// schedule ends), then send to each peer in turn.
template <typename SendOf, typename RecvOf>
void exchange_linear(Plan& p, SendOf send_of, RecvOf recv_of) {
  p.round();
  for (int r = 0; r < p.n; ++r) {
    if (r == p.me) continue;
    const Piece in = recv_of(r);
    p.recv(r, in.at, in.len, /*deferred=*/true);
  }
  for (int r = 0; r < p.n; ++r) {
    if (r == p.me) continue;
    const Piece out = send_of(r);
    p.round();
    p.send(r, out.at, out.len);
  }
}

// --- mv2 shapes --------------------------------------------------------------

void barrier_dissemination(Plan& p) {
  // ceil(log2 n) rounds. Distinct out/in token bytes: a round's receive
  // may land while its send still reads the outgoing byte.
  const NbcLoc out = p.scratch(1);
  const NbcLoc in = p.scratch(1);
  for (int mask = 1; mask < p.n; mask <<= 1)
    p.sendrecv(mod(p.me + mask, p.n), {out, 1}, mod(p.me - mask, p.n),
               {in, 1});
}

void bcast_binomial(Plan& p, NbcLoc buf, std::size_t bytes, int root) {
  const int rel = mod(p.me - root, p.n);
  int mask = 1;
  for (; mask < p.n; mask <<= 1) {
    if (rel & mask) {
      p.round();
      p.recv(mod(rel - mask + root, p.n), buf, bytes);
      break;
    }
  }
  for (mask >>= 1; mask > 0; mask >>= 1) {
    if (rel + mask < p.n) {
      p.round();
      p.send(mod(rel + mask + root, p.n), buf, bytes);
    }
  }
}

/// Large-message broadcast: the root scatters one chunk to every rank,
/// then a ring allgather circulates them. Root-link volume matches a
/// binomial scatter; the ring keeps every link busy.
void bcast_scatter_ring(Plan& p, NbcLoc buf, std::size_t bytes, int root) {
  auto chunk = [&](int k) { return piece_of(buf, bytes, p.n, k); };
  if (p.me == root) {
    for (int r = 0; r < p.n; ++r) {
      const Piece ch = chunk(r);
      if (r == root || ch.len == 0) continue;
      p.round();
      p.send(r, ch.at, ch.len);
    }
  } else if (const Piece ch = chunk(p.me); ch.len > 0) {
    p.round();
    p.recv(root, ch.at, ch.len);
  }
  ring_allgather(p, chunk);
}

/// Binomial fan-in on relative ranks: fold each child's partial result
/// into the accumulator, then send it up. The root accumulates straight
/// into its output.
void reduce_binomial(Plan& p, NbcLoc in, NbcLoc out, std::size_t count,
                     int root) {
  const std::size_t bytes = p.bytes(count);
  const int rel = mod(p.me - root, p.n);
  const NbcLoc acc = p.me == root ? out : p.scratch(bytes);
  const NbcLoc incoming = p.scratch(bytes);
  p.copy(in, acc, bytes);
  for (int mask = 1; mask < p.n; mask <<= 1) {
    if ((rel & mask) == 0) {
      const int src_rel = rel | mask;
      if (src_rel < p.n) {
        p.round();
        p.recv(mod(src_rel + root, p.n), incoming, bytes);
        p.reduce(incoming, acc, count);
      }
    } else {
      p.round();
      p.send(mod((rel & ~mask) + root, p.n), acc, bytes);
      break;
    }
  }
}

/// Recursive doubling with the standard fold of the ranks beyond the
/// largest power of two.
void allreduce_recursive_doubling(Plan& p, NbcLoc in, NbcLoc out,
                                  std::size_t count) {
  const std::size_t bytes = p.bytes(count);
  const int pof2 = floor_pow2(p.n);
  const int rem = p.n - pof2;
  const NbcLoc incoming = p.scratch(bytes);
  p.copy(in, out, bytes);

  // Fold the first 2*rem ranks pairwise so pof2 participants remain.
  int newrank = p.me - rem;
  if (p.me < 2 * rem) {
    p.round();
    if (p.me % 2 == 0) {
      p.send(p.me + 1, out, bytes);
      newrank = -1;  // sits out; receives the result at the end
    } else {
      p.recv(p.me - 1, incoming, bytes);
      p.reduce(incoming, out, count);
      newrank = p.me / 2;
    }
  }
  if (newrank != -1) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner_new = newrank ^ mask;
      const int partner =
          partner_new < rem ? partner_new * 2 + 1 : partner_new + rem;
      p.sendrecv(partner, {out, bytes}, partner, {incoming, bytes});
      p.reduce(incoming, out, count);
    }
  }
  // Hand the result back to the folded-out even ranks.
  if (p.me < 2 * rem) {
    p.round();
    if (p.me % 2 != 0) {
      p.send(p.me - 1, out, bytes);
    } else {
      p.recv(p.me + 1, out, bytes);
    }
  }
}

/// Ring allreduce (reduce-scatter ring, then allgather ring):
/// bandwidth-optimal for large payloads.
void allreduce_ring(Plan& p, NbcLoc in, NbcLoc out, std::size_t count) {
  const std::size_t esz = p.bytes(1);
  const std::size_t bytes = count * esz;
  auto chunk = [&](int k) { return piece_of(out, bytes, p.n, k, esz); };
  std::size_t max_chunk = 0;
  for (int k = 0; k < p.n; ++k) max_chunk = std::max(max_chunk, chunk(k).len);
  const NbcLoc incoming = p.scratch(max_chunk);
  p.copy(in, out, bytes);
  // Reduce-scatter: after n-1 steps rank owns the full reduction of
  // chunk (rank+1) % n.
  for (int s = 0; s < p.n - 1; ++s) {
    const Piece rc = chunk(mod(p.me - s - 1, p.n));
    p.sendrecv(mod(p.me + 1, p.n), chunk(mod(p.me - s, p.n)),
               mod(p.me - 1, p.n), {incoming, rc.len});
    p.reduce(incoming, rc.at, rc.len / esz);
  }
  ring_allgather(p, [&](int k) { return chunk(mod(k + 1, p.n)); });
}

/// Ring reduce-scatter: each block travels the ring accumulating partial
/// reductions and comes to rest at its owner (rank r owns block r).
void reduce_scatter_ring(Plan& p, NbcLoc in, NbcLoc out,
                         std::size_t per_rank) {
  const std::size_t block = p.bytes(per_rank);
  const NbcLoc work = p.scratch(block * static_cast<std::size_t>(p.n));
  const NbcLoc incoming = p.scratch(block);
  auto at = [&](int k) { return work + static_cast<std::size_t>(k) * block; };
  p.copy(in, work, block * static_cast<std::size_t>(p.n));
  for (int s = 0; s < p.n - 1; ++s) {
    p.sendrecv(mod(p.me + 1, p.n), {at(mod(p.me - s - 1, p.n)), block},
               mod(p.me - 1, p.n), {incoming, block});
    p.reduce(incoming, at(mod(p.me - s - 2, p.n)), per_rank);
  }
  p.copy(at(p.me), out, block);
}

/// Recursive-doubling inclusive scan (commutative operators): keep a
/// running total of [me-2^k+1, me] and fold lower partials into the
/// result.
void scan_recursive_doubling(Plan& p, NbcLoc in, NbcLoc out,
                             std::size_t count) {
  const std::size_t bytes = p.bytes(count);
  const NbcLoc partial = p.scratch(bytes);
  const NbcLoc incoming = p.scratch(bytes);
  p.copy(in, out, bytes);
  p.copy(in, partial, bytes);
  for (int mask = 1; mask < p.n; mask <<= 1) {
    if (p.me + mask < p.n) {
      p.round();
      p.send(p.me + mask, partial, bytes);
    }
    if (p.me - mask >= 0) {
      p.round();
      p.recv(p.me - mask, incoming, bytes);
      p.reduce(incoming, partial, count);
      p.reduce(incoming, out, count);
    }
  }
}

/// Binomial gather: each subtree root accumulates its subtree's blocks
/// in relative order, then the root rotates them into rank order.
void gather_binomial(Plan& p, NbcLoc in, NbcLoc out, std::size_t bpr,
                     int root) {
  const int rel = mod(p.me - root, p.n);
  const int subtree = rel == 0 ? p.n : std::min(rel & -rel, p.n - rel);
  const NbcLoc tmp = p.scratch(static_cast<std::size_t>(subtree) * bpr);
  auto block = [&](int k) { return tmp + static_cast<std::size_t>(k) * bpr; };
  p.copy(in, tmp, bpr);
  int have = 1;  // blocks accumulated so far (relative, contiguous)
  for (int mask = 1; mask < p.n; mask <<= 1) {
    if ((rel & mask) == 0) {
      const int src_rel = rel | mask;
      if (src_rel < p.n) {
        const int blocks = std::min(mask, p.n - src_rel);
        p.round();
        p.recv(mod(src_rel + root, p.n), block(mask),
               static_cast<std::size_t>(blocks) * bpr);
        have += blocks;
      }
    } else {
      p.round();
      p.send(mod((rel & ~mask) + root, p.n), tmp,
             static_cast<std::size_t>(have) * bpr);
      break;
    }
  }
  if (p.me != root) return;
  for (int k = 0; k < p.n; ++k) {
    p.copy(block(k), out + static_cast<std::size_t>(mod(k + root, p.n)) * bpr,
           bpr);
  }
}

/// Binomial scatter, the mirror of the gather: the root seeds a
/// relative-order staging buffer, internal nodes forward their subtree's
/// tail, largest subtree first.
void scatter_binomial(Plan& p, NbcLoc in, NbcLoc out, std::size_t bpr,
                      int root) {
  const int rel = mod(p.me - root, p.n);
  int have = p.n;  // blocks held, starting at my own relative index
  NbcLoc tmp;
  if (p.me == root) {
    tmp = p.scratch(static_cast<std::size_t>(p.n) * bpr);
    for (int k = 0; k < p.n; ++k) {
      p.copy(in + static_cast<std::size_t>(mod(k + root, p.n)) * bpr,
             tmp + static_cast<std::size_t>(k) * bpr, bpr);
    }
  } else {
    const int mask = rel & -rel;
    have = std::min(mask, p.n - rel);
    tmp = p.scratch(static_cast<std::size_t>(have) * bpr);
    p.round();
    p.recv(mod((rel & ~mask) + root, p.n), tmp,
           static_cast<std::size_t>(have) * bpr);
  }
  int top = 1;
  while (top < p.n) top <<= 1;
  for (int mask = top >> 1; mask > 0; mask >>= 1) {
    if (rel + mask < p.n && mask < have) {
      const int blocks = std::min(mask, p.n - (rel + mask));
      p.round();
      p.send(mod(rel + mask + root, p.n),
             tmp + static_cast<std::size_t>(mask) * bpr,
             static_cast<std::size_t>(blocks) * bpr);
      have = mask;
    }
  }
  p.copy(tmp, out, bpr);
}

void allgather_recursive_doubling(Plan& p, NbcLoc in, NbcLoc out,
                                  std::size_t bpr) {
  p.copy(in, out + static_cast<std::size_t>(p.me) * bpr, bpr);
  for (int mask = 1; mask < p.n; mask <<= 1) {
    const int partner = p.me ^ mask;
    const std::size_t len = static_cast<std::size_t>(mask) * bpr;
    p.sendrecv(partner,
               {out + static_cast<std::size_t>(p.me & ~(mask - 1)) * bpr, len},
               partner,
               {out + static_cast<std::size_t>(partner & ~(mask - 1)) * bpr,
                len});
  }
}

void allgather_ring(Plan& p, NbcLoc in, NbcLoc out, std::size_t bpr) {
  p.copy(in, out + static_cast<std::size_t>(p.me) * bpr, bpr);
  ring_allgather(p, [&](int k) {
    return Piece{out + static_cast<std::size_t>(k) * bpr, bpr};
  });
}

void allgatherv_ring(Plan& p, NbcLoc in, NbcLoc out, const CollArgs& a) {
  auto block = [&](int k) {
    const auto i = static_cast<std::size_t>(k);
    return Piece{out + a.displs[i], a.counts[i]};
  };
  p.copy(in, block(p.me).at, a.size);
  ring_allgather(p, block);
}

// --- basic shapes --------------------------------------------------------------

void barrier_linear(Plan& p) {
  // Fan-in of one-byte tokens to rank 0, then fan-out from it.
  const NbcLoc token = p.scratch(1);
  for (const bool in : {true, false}) {
    if (p.me != 0) {
      p.round();
      in ? p.send(0, token, 1) : p.recv(0, token, 1);
      continue;
    }
    for (int r = 1; r < p.n; ++r) {
      p.round();
      in ? p.recv(r, token, 1) : p.send(r, token, 1);
    }
  }
}

void bcast_linear(Plan& p, NbcLoc buf, std::size_t bytes, int root) {
  if (p.me != root) {
    p.round();
    p.recv(root, buf, bytes);
    return;
  }
  for (int r = 0; r < p.n; ++r) {
    if (r == root) continue;
    p.round();
    p.send(r, buf, bytes);
  }
}

void reduce_linear(Plan& p, NbcLoc in, NbcLoc out, std::size_t count,
                   int root) {
  const std::size_t bytes = p.bytes(count);
  if (p.me != root) {
    p.round();
    p.send(root, in, bytes);
    return;
  }
  const NbcLoc incoming = p.scratch(bytes);
  p.copy(in, out, bytes);
  for (int r = 0; r < p.n; ++r) {
    if (r == root) continue;
    p.round();
    p.recv(r, incoming, bytes);
    p.reduce(incoming, out, count);
  }
}

/// Linear chain: fold the predecessor's prefix, pass mine downstream.
void scan_linear(Plan& p, NbcLoc in, NbcLoc out, std::size_t count) {
  const std::size_t bytes = p.bytes(count);
  p.copy(in, out, bytes);
  if (p.me > 0) {
    const NbcLoc incoming = p.scratch(bytes);
    p.round();
    p.recv(p.me - 1, incoming, bytes);
    p.reduce(incoming, out, count);
  }
  if (p.me + 1 < p.n) {
    p.round();
    p.send(p.me + 1, out, bytes);
  }
}

/// Flat fan-in of `len` bytes per rank: the root posts every receive in
/// one round, so senders never block on an absent match. `block_of(r)`
/// is rank r's piece at the root (the root's own is copied from `in`).
template <typename BlockOf>
void gather_linear(Plan& p, NbcLoc in, std::size_t len, int root,
                   BlockOf block_of) {
  if (p.me != root) {
    p.round();
    p.send(root, in, len);
    return;
  }
  p.copy(in, block_of(root).at, len);
  p.round();
  for (int r = 0; r < p.n; ++r) {
    if (r == root) continue;
    const Piece b = block_of(r);
    p.recv(r, b.at, b.len);
  }
}

/// Flat fan-out, one send at a time; the mirror of gather_linear.
/// Non-roots receive up to `capacity` bytes.
template <typename BlockOf>
void scatter_linear(Plan& p, NbcLoc out, std::size_t capacity, int root,
                    BlockOf block_of) {
  if (p.me != root) {
    p.round();
    p.recv(root, out, capacity);
    return;
  }
  const Piece mine = block_of(root);
  p.copy(mine.at, out, mine.len);
  for (int r = 0; r < p.n; ++r) {
    if (r == root) continue;
    const Piece b = block_of(r);
    p.round();
    p.send(r, b.at, b.len);
  }
}

// --- Selection ---------------------------------------------------------------

/// Build `alg`'s rounds for this rank.
void build(CollAlg alg, Plan& p, const CollArgs& a) {
  const NbcLoc in{NbcBuf::kUserIn, 0};
  const NbcLoc out{NbcBuf::kUserOut, 0};
  const std::size_t sz = a.size;
  const auto n = static_cast<std::size_t>(p.n);
  auto blocks = [sz](NbcLoc base) {
    return [base, sz](int k) {
      return Piece{base + static_cast<std::size_t>(k) * sz, sz};
    };
  };
  auto vblocks = [](NbcLoc base, std::span<const std::size_t> counts,
                    std::span<const std::size_t> displs) {
    return [=](int k) {
      const auto i = static_cast<std::size_t>(k);
      return Piece{base + displs[i], counts[i]};
    };
  };
  switch (alg) {
    case CollAlg::kBarrierDissemination:
      return barrier_dissemination(p);
    case CollAlg::kBcastBinomial:
      return bcast_binomial(p, out, sz, a.root);
    case CollAlg::kBcastScatterRing:
      return bcast_scatter_ring(p, out, sz, a.root);
    case CollAlg::kReduceBinomial:
      return reduce_binomial(p, in, out, sz, a.root);
    case CollAlg::kAllreduceRecursiveDoubling:
      return allreduce_recursive_doubling(p, in, out, sz);
    case CollAlg::kAllreduceRing:
      return allreduce_ring(p, in, out, sz);
    case CollAlg::kReduceScatterRing:
      return reduce_scatter_ring(p, in, out, sz);
    case CollAlg::kScanRecursiveDoubling:
      return scan_recursive_doubling(p, in, out, sz);
    case CollAlg::kGatherBinomial:
      return gather_binomial(p, in, out, sz, a.root);
    case CollAlg::kScatterBinomial:
      return scatter_binomial(p, in, out, sz, a.root);
    case CollAlg::kAllgatherRecursiveDoubling:
      return allgather_recursive_doubling(p, in, out, sz);
    case CollAlg::kAllgatherRing:
      return allgather_ring(p, in, out, sz);
    case CollAlg::kAlltoallPairwise:
      p.copy(blocks(in)(p.me).at, blocks(out)(p.me).at, sz);
      return exchange_pairwise(p, blocks(in), blocks(out));
    case CollAlg::kAllgathervRing:
      return allgatherv_ring(p, in, out, a);
    case CollAlg::kAlltoallvPairwise:
    case CollAlg::kAlltoallvLinear: {
      const auto mine = static_cast<std::size_t>(p.me);
      p.copy(in + a.sdispls[mine], out + a.displs[mine], a.scounts[mine]);
      const auto snd = vblocks(in, a.scounts, a.sdispls);
      const auto rcv = vblocks(out, a.counts, a.displs);
      return alg == CollAlg::kAlltoallvPairwise
                 ? exchange_pairwise(p, snd, rcv)
                 : exchange_linear(p, snd, rcv);
    }

    case CollAlg::kBarrierLinear:
      return barrier_linear(p);
    case CollAlg::kBcastLinear:
      return bcast_linear(p, out, sz, a.root);
    case CollAlg::kReduceLinear:
      return reduce_linear(p, in, out, sz, a.root);
    case CollAlg::kAllreduceLinear:
      reduce_linear(p, in, out, sz, 0);
      return bcast_linear(p, out, p.bytes(sz), 0);
    case CollAlg::kReduceScatterLinear: {
      // Reduce everything to rank 0, scatter the blocks back out.
      const std::size_t block = p.bytes(sz);
      const NbcLoc full = p.me == 0 ? p.scratch(block * n) : NbcLoc{};
      reduce_linear(p, in, full, sz * n, 0);
      return scatter_linear(p, out, block, 0, [full, block](int k) {
        return Piece{full + static_cast<std::size_t>(k) * block, block};
      });
    }
    case CollAlg::kScanLinear:
      return scan_linear(p, in, out, sz);
    case CollAlg::kGatherLinear:
      return gather_linear(p, in, sz, a.root, blocks(out));
    case CollAlg::kScatterLinear:
      return scatter_linear(p, out, sz, a.root, blocks(in));
    case CollAlg::kAllgatherLinear:
      gather_linear(p, in, sz, 0, blocks(out));
      return bcast_linear(p, out, sz * n, 0);
    case CollAlg::kAlltoallLinear:
      p.copy(blocks(in)(p.me).at, blocks(out)(p.me).at, sz);
      return exchange_linear(p, blocks(in), blocks(out));
    case CollAlg::kAllgathervLinear: {
      const auto rcv = vblocks(out, a.counts, a.displs);
      p.copy(in, rcv(p.me).at, sz);
      return exchange_linear(
          p, [in, sz](int) { return Piece{in, sz}; }, rcv);
    }
    case CollAlg::kGathervLinear:
    case CollAlg::kScattervLinear:
      // counts/displs are significant at the root only. The check runs
      // after the operation drew its tag, so a root that rejects them
      // stays in step with the ranks that already sent.
      if (p.me == a.root) {
        const auto mine = static_cast<std::size_t>(p.me);
        JHPC_REQUIRE(a.counts.size() == n && a.displs.size() == n,
                     "gatherv/scatterv counts/displs must have comm-size "
                     "entries");
        JHPC_REQUIRE(alg == CollAlg::kGathervLinear ? sz == a.counts[mine]
                                                    : sz >= a.counts[mine],
                     "gatherv: root send size must equal its count; "
                     "scatterv: root receive buffer too small");
      }
      return alg == CollAlg::kGathervLinear
                 ? gather_linear(p, in, sz, a.root,
                                 vblocks(out, a.counts, a.displs))
                 : scatter_linear(p, out, sz, a.root,
                                  vblocks(in, a.counts, a.displs));
    default:
      break;
  }
  JHPC_ASSERT(false, "no schedule builder for this collective algorithm");
}

/// The i-collective pvar row of an operation.
CollAlg nbc_row(NbcOp what) {
  switch (what) {
    case NbcOp::kBarrier: return CollAlg::kNbcBarrier;
    case NbcOp::kBcast: return CollAlg::kNbcBcast;
    case NbcOp::kReduce: return CollAlg::kNbcReduce;
    case NbcOp::kAllreduce: return CollAlg::kNbcAllreduce;
    case NbcOp::kGather: return CollAlg::kNbcGather;
    case NbcOp::kScatter: return CollAlg::kNbcScatter;
    case NbcOp::kAllgather: return CollAlg::kNbcAllgather;
    case NbcOp::kAlltoall: return CollAlg::kNbcAlltoall;
    default: break;
  }
  JHPC_ASSERT(false, "no nonblocking form of this collective");
}

// --- Progress machinery ------------------------------------------------------

std::byte* buf_ptr(NbcState& st, NbcLoc at) {
  switch (at.buf) {
    case NbcBuf::kUserIn:
      // Never written through: only send payloads and copy/reduce sources
      // address the user's input buffer.
      return const_cast<std::byte*>(st.user_in) + at.off;
    case NbcBuf::kUserOut:
      return st.user_out + at.off;
    case NbcBuf::kScratch:
      return st.scratch.data() + at.off;
  }
  return nullptr;
}

int comm_rank_of(const NbcState& st, int peer) {
  return st.team.empty() ? peer : st.team[static_cast<std::size_t>(peer)];
}

bool is_comm(const NbcStep& s) {
  return s.kind == NbcStepKind::kSend || s.kind == NbcStepKind::kRecv;
}

std::size_t round_begin(const NbcState& st) {
  return st.round == 0 ? 0 : st.round_end[st.round - 1];
}

/// A blocking run alone on its rank waits inline, in wait_request, like
/// a blocking point-to-point call: nothing else needs progressing while
/// it blocks, and a parked wait costs no extra clock reads.
bool waits_inline(const NbcState& st, int world) {
  return st.blocking &&
         st.impl->nbc[static_cast<std::size_t>(world)].active.size() == 1;
}

/// The round's reductions and copies. Their CPU reaches virtual time at
/// the rank's next transport call or wait, like any other work between
/// transport calls.
void run_local_steps(NbcState& st) {
  for (std::size_t i = round_begin(st); i < st.round_end[st.round]; ++i) {
    const NbcStep& s = st.steps[i];
    if (s.kind == NbcStepKind::kCopy) {
      const std::byte* src = buf_ptr(st, s.src);
      std::byte* dst = buf_ptr(st, s.dst);
      if (s.len != 0 && dst != src) std::memcpy(dst, src, s.len);
    } else if (s.kind == NbcStepKind::kReduce) {  // accumulator op= input
      apply_reduce(st.op, st.kind, buf_ptr(st, s.dst), buf_ptr(st, s.src),
                   s.len);
    }
  }
}

void post_round(NbcState& st, int world, RankClock& clock, UniverseObs* o) {
  const std::size_t begin = round_begin(st);
  const std::size_t end = st.round_end[st.round];
  if (o != nullptr) {
    clock.advance_cpu();
    st.round_start_v = clock.vclock;
    o->rec.begin(world, "nbc.round", clock.vclock);
  }
  st.posted = true;
  // Inline, a lone receive takes blocking_recv's matched-receive fast
  // path.
  if (waits_inline(st, world) &&
      std::count_if(st.steps.begin() + begin, st.steps.begin() + end,
                    is_comm) == 1) {
    const NbcStep& s = *std::find_if(st.steps.begin() + begin,
                                     st.steps.begin() + end, is_comm);
    if (s.kind == NbcStepKind::kRecv && !s.deferred) {
      st.impl->blocking_recv(world, st.context_id, comm_rank_of(st, s.peer),
                             st.tag, buf_ptr(st, s.dst), s.len);
      return;
    }
  }
  // Receives first, then sends: every peer's receive is visible before
  // any send might park as an unexpected rendezvous.
  for (std::size_t i = begin; i < end; ++i) {
    const NbcStep& s = st.steps[i];
    if (s.kind != NbcStepKind::kRecv) continue;
    (s.deferred ? st.deferred : st.pending)
        .push_back(st.impl->post_recv(world, st.context_id,
                                      comm_rank_of(st, s.peer), st.tag,
                                      buf_ptr(st, s.dst), s.len));
  }
  for (std::size_t i = begin; i < end; ++i) {
    const NbcStep& s = st.steps[i];
    if (s.kind != NbcStepKind::kSend) continue;
    auto p = st.impl->deliver(
        world, st.group.world_rank(comm_rank_of(st, s.peer)), st.context_id,
        st.my_rank, st.tag, buf_ptr(st, s.src), s.len);
    if (p) st.pending.push_back(std::move(p));
  }
}

bool all_complete(const std::vector<std::shared_ptr<RequestState>>& reqs) {
  for (const auto& rs : reqs) {
    if (!rs->complete.load(std::memory_order_acquire)) return false;
  }
  return true;
}

/// Withdraw the schedule's parked receives: their targets point into its
/// scratch or the caller's buffers, and a late match would write through
/// a dangling pointer once the state is gone.
void cancel_receives(NbcState& st, int world) {
  MatchBucket& bk =
      st.impl->endpoints[static_cast<std::size_t>(world)]->bucket(
          st.context_id);
  std::lock_guard<std::mutex> lk(bk.mu);
  for (const auto* reqs : {&st.pending, &st.deferred}) {
    for (const auto& rs : *reqs) {
      if (rs->is_recv) std::erase(bk.posted, rs);
    }
  }
  st.pending.clear();
  st.deferred.clear();
}

/// Poison a schedule whose round failed (rank death, revocation,
/// timeout): cancel its still-parked receives, record the exception for
/// every subsequent wait/test, and mark it done so the progress set
/// prunes it. A rank failure also revokes the communicator — the other
/// ranks of the operation are parked in rounds that now have no
/// counterpart, and only a revocation sweep turns those hangs into
/// CommRevokedError.
void fail_schedule(NbcState& st, int world, RankClock& clock, UniverseObs* o,
                   std::exception_ptr ep) {
  cancel_receives(st, world);
  st.failed = true;
  st.failure = ep;
  st.done = true;
  // An i-collective that loses a rank revokes its communicator here;
  // a blocking run leaves that to coll_run, so the fixed-tag runs of
  // dup/split/create (bcast_cid) throw without revoking, like
  // point-to-point.
  if (!st.blocking) {
    try {
      std::rethrow_exception(ep);
    } catch (const RankFailedError&) {
      st.impl->revoke_comm(st.context_id, world);
    } catch (...) {
      // Timeouts and other transport failures poison only this schedule.
    }
  }
  if (o != nullptr) {
    clock.advance_cpu();
    if (st.posted) o->rec.end(world, "nbc.round", clock.vclock);
    if (st.row != CollAlg::kCount)
      o->rec.end(world, coll_alg_trace_name(st.row), clock.vclock);
  }
  st.posted = false;
}

/// Drive one schedule as far as it can go without blocking; returns true
/// once it is done.
bool try_advance(NbcState& st) {
  if (st.done) return true;
  const int world = st.group.world_rank(st.my_rank);
  RankClock& clock = st.impl->clocks[static_cast<std::size_t>(world)];
  UniverseObs* o = st.impl->obs.get();
  try {
    for (;;) {
      if (!st.posted) {
        if (st.round >= st.round_end.size()) {
          if (!all_complete(st.deferred) && !waits_inline(st, world))
            return false;
          for (const auto& rs : st.deferred) wait_request(*rs);
          st.deferred.clear();
          if (st.typed_dt) st.typed.finish(*st.typed_dt);
          st.done = true;
          if (o != nullptr && st.row != CollAlg::kCount) {
            clock.advance_cpu();
            o->rec.end(world, coll_alg_trace_name(st.row), clock.vclock);
          }
          return true;
        }
        post_round(st, world, clock, o);
      }
      if (!all_complete(st.pending) && !waits_inline(st, world))
        return false;
      // Finalize in posting order: wait_request observes each delivery
      // time (the rank's clock jumps to the round's critical path) and
      // charges the wait pvars — the accounting of the equivalent
      // blocking calls. It returns at once on a completed request and
      // blocks only when waiting inline.
      for (const auto& rs : st.pending) wait_request(*rs);
      st.pending.clear();
      run_local_steps(st);
      if (o != nullptr) {
        o->rec.end(world, "nbc.round", clock.vclock);
        o->rec.pvars().record(o->hist_nbc_round, world,
                              clock.vclock - st.round_start_v);
      }
      ++st.round;
      st.posted = false;
    }
  } catch (const AbortError&) {
    throw;  // job is aborting: unwind the rank thread, don't poison
  } catch (const RankKilledError&) {
    throw;  // this rank's own planned death: unwind
  } catch (...) {
    fail_schedule(st, world, clock, o, std::current_exception());
    return true;
  }
}

/// Spin, then park briefly on an incomplete request; returns on
/// completion or timeout (so the caller can progress its other
/// schedules), throws on abort or the owner's own death.
void park_on(RequestState& rs, std::chrono::milliseconds timeout) {
  // Charge the owner's work up to here; the wait itself is host CPU that
  // must not reach virtual time.
  if (rs.owner_clock != nullptr) rs.owner_clock->advance_cpu();
  await_completion(rs, timeout);
  if (rs.owner_clock != nullptr) rs.owner_clock->resync_cpu();
}

/// Wait out a blocking run. On any unwind its receives are withdrawn and
/// it leaves the progress set: the buffers they target die with the
/// caller's frame.
void finish_blocking(std::shared_ptr<NbcState> st) {
  try {
    nbc_wait(*st);
  } catch (...) {
    if (!st->done) {
      const int world = st->group.world_rank(st->my_rank);
      cancel_receives(*st, world);
      st->done = true;
      std::erase(st->impl->nbc[static_cast<std::size_t>(world)].active, st);
    }
    throw;
  }
}

/// Compile `alg` for the calling rank and register the schedule. A
/// negative `tag` draws the next per-(rank, context) sequence tag.
std::shared_ptr<NbcState> start(const Comm& c, CollAlg alg, CollAlg row,
                                int tag, std::span<const int> team,
                                const CollArgs& a, bool blocking) {
  const ObsAccess h = obs_access(c);
  NbcRank& nr = h.uni->nbc[static_cast<std::size_t>(h.world_rank)];
  auto st = std::make_shared<NbcState>();
  st->impl = h.uni;
  st->group = c.group();
  st->team.assign(team.begin(), team.end());
  st->my_rank = c.rank();
  st->context_id = h.context_id;
  st->row = row;
  st->blocking = blocking;
  st->user_in = static_cast<const std::byte*>(a.in);
  st->user_out = static_cast<std::byte*>(a.out);
  st->kind = a.kind;
  st->op = a.op;
  st->tag = tag >= 0 ? tag
                     : kTagNbcBase + static_cast<int>(nr.seq[h.context_id]++ %
                                                      kNbcTagSpan);

  const int n = team.empty() ? c.size() : static_cast<int>(team.size());
  const int me = team.empty()
                     ? c.rank()
                     : static_cast<int>(std::find(team.begin(), team.end(),
                                                  c.rank()) -
                                        team.begin());
  Plan plan(*st, n, me);
  build(alg, plan, a);
  plan.finish();

  if (h.obs != nullptr && row != CollAlg::kCount) {
    h.clock->advance_cpu();
    h.obs->rec.pvars().add(h.obs->coll[static_cast<std::size_t>(row)],
                           h.world_rank, 1);
    h.obs->rec.begin(h.world_rank, coll_alg_trace_name(row),
                     h.clock->vclock);
  }
  nr.active.push_back(st);
  // Post an i-collective's round 0 now: its overlap window opens at
  // initiation, not at the first wait/test. A blocking run's wait posts
  // it.
  if (!blocking) nbc_progress_rank(*h.uni, h.world_rank);
  return st;
}

// --- Entry points ------------------------------------------------------------

void check_args(const Comm& c, const CollArgs& a) {
  JHPC_REQUIRE(c.valid(), "collective on an invalid communicator");
  const auto n = static_cast<std::size_t>(c.size());
  const auto me = static_cast<std::size_t>(c.rank());
  auto per_rank = [n](std::span<const std::size_t> s) {
    return s.size() == n;
  };
  switch (a.what) {
    case NbcOp::kBcast:
    case NbcOp::kReduce:
    case NbcOp::kGather:
    case NbcOp::kScatter:
    case NbcOp::kGatherv:
    case NbcOp::kScatterv:
      JHPC_REQUIRE(a.root >= 0 && a.root < c.size(),
                   "collective root rank out of range");
      break;
    default:
      break;
  }
  switch (a.what) {
    case NbcOp::kAllgatherv:
      JHPC_REQUIRE(per_rank(a.counts) && per_rank(a.displs),
                   "allgatherv counts/displs must have comm-size entries");
      JHPC_REQUIRE(a.size == a.counts[me],
                   "allgatherv send size must equal my count");
      break;
    case NbcOp::kAlltoallv:
      JHPC_REQUIRE(per_rank(a.scounts) && per_rank(a.sdispls) &&
                       per_rank(a.counts) && per_rank(a.displs),
                   "alltoallv counts/displs must have comm-size entries");
      break;
    default:
      break;
  }
}

/// The hier suite's two-level algorithms; false for the operations it
/// leaves to the mv2 schedules.
bool run_hier(const Comm& c, const CollArgs& a) {
  switch (a.what) {
    case NbcOp::kBarrier:
      hier::barrier(c);
      return true;
    case NbcOp::kBcast:
      hier::bcast(c, a.out, a.size, a.root);
      return true;
    case NbcOp::kReduce:
      hier::reduce(c, a.in, a.out, a.size, a.kind, a.op, a.root);
      return true;
    case NbcOp::kAllreduce:
      hier::allreduce(c, a.in, a.out, a.size, a.kind, a.op);
      return true;
    case NbcOp::kGather:
      hier::gather(c, a.in, a.size, a.out, a.root);
      return true;
    default:
      return false;
  }
}

/// The byte form of a typed call (`a.size` in bytes or, for the
/// reductions, leaf elements).
CollArgs byte_args(const Comm& c, CollArgs a, int count,
                   const Datatype& type) {
  a.size = typed_bytes(count, type, "typed collective");
  if (a.what == NbcOp::kReduce || a.what == NbcOp::kAllreduce) {
    // Even a dense (contiguous-layout) struct can mix leaves.
    if (!type.uniform_leaf()) {
      throw UnsupportedOperationError(
          "typed reduction requires a uniform leaf kind (mixed-leaf "
          "structs are not element-wise reducible)");
    }
    a.kind = type.leaf_kind();
    a.size /= basic_size(a.kind);
  }
  check_args(c, a);
  return a;
}

/// Pack a strided typed call's send side into `ts`, arrange the unpack
/// of its result, and point the byte arguments at the staging.
CollArgs stage_typed(const Comm& c, CollArgs a, int count,
                     const Datatype& type, TypedStage& ts) {
  const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
  const auto n = static_cast<std::size_t>(c.size());
  const int total = count * c.size();
  const bool is_root = c.rank() == a.root;
  auto pack_in = [&](std::size_t len, int elems) {
    ts.in.resize(len);
    type.pack(a.in, ts.in.data(), elems);
  };
  bool unpack = true;
  int elems = count;
  switch (a.what) {
    case NbcOp::kBcast:
      ts.out.resize(bytes);
      if (is_root) type.pack(a.out, ts.out.data(), count);
      unpack = !is_root;
      break;
    case NbcOp::kReduce:
    case NbcOp::kAllreduce:
      pack_in(bytes, count);
      ts.out.resize(bytes);
      unpack = a.what == NbcOp::kAllreduce || is_root;
      break;
    case NbcOp::kGather:
      pack_in(bytes, count);
      if (is_root) ts.out.resize(bytes * n);
      unpack = is_root;
      elems = total;
      break;
    case NbcOp::kScatter:
      if (is_root) pack_in(bytes * n, total);
      ts.out.resize(bytes);
      break;
    case NbcOp::kAllgather:
      pack_in(bytes, count);
      ts.out.resize(bytes * n);
      elems = total;
      break;
    case NbcOp::kAlltoall:
      pack_in(bytes * n, total);
      ts.out.resize(bytes * n);
      elems = total;
      break;
    default:
      JHPC_ASSERT(false, "no typed form of this collective");
  }
  if (unpack) {
    ts.unpack_count = elems;
    ts.unpack_dst = a.out;
  }
  a.in = ts.in.empty() ? nullptr : ts.in.data();
  a.out = ts.out.empty() ? nullptr : ts.out.data();
  return a;
}

}  // namespace

CollAlg select(const CollArgs& a, CollectiveSuite suite, int n,
               const UniverseConfig& cfg) {
  const bool mv2 = suite != CollectiveSuite::kOmpiBasic;
  const auto un = static_cast<std::size_t>(n);
  switch (a.what) {
    case NbcOp::kBarrier:
      return mv2 ? CollAlg::kBarrierDissemination : CollAlg::kBarrierLinear;
    case NbcOp::kBcast:
      // Small payloads (or tiny comms) use the binomial tree; large
      // payloads switch to scatter + ring allgather.
      if (!mv2) return CollAlg::kBcastLinear;
      return a.size <= cfg.bcast_binomial_max || n <= 2
                 ? CollAlg::kBcastBinomial
                 : CollAlg::kBcastScatterRing;
    case NbcOp::kReduce:
      return mv2 ? CollAlg::kReduceBinomial : CollAlg::kReduceLinear;
    case NbcOp::kAllreduce:
      if (!mv2) return CollAlg::kAllreduceLinear;
      return a.size * basic_size(a.kind) <= cfg.allreduce_rd_max ||
                     a.size < un
                 ? CollAlg::kAllreduceRecursiveDoubling
                 : CollAlg::kAllreduceRing;
    case NbcOp::kReduceScatterBlock:
      return mv2 ? CollAlg::kReduceScatterRing
                 : CollAlg::kReduceScatterLinear;
    case NbcOp::kScan:
      return mv2 ? CollAlg::kScanRecursiveDoubling : CollAlg::kScanLinear;
    case NbcOp::kGather:
      return mv2 ? CollAlg::kGatherBinomial : CollAlg::kGatherLinear;
    case NbcOp::kScatter:
      return mv2 ? CollAlg::kScatterBinomial : CollAlg::kScatterLinear;
    case NbcOp::kAllgather:
      if (!mv2) return CollAlg::kAllgatherLinear;
      return is_pow2(n) && a.size * un <= cfg.allgather_rd_max
                 ? CollAlg::kAllgatherRecursiveDoubling
                 : CollAlg::kAllgatherRing;
    case NbcOp::kAlltoall:
      return mv2 ? CollAlg::kAlltoallPairwise : CollAlg::kAlltoallLinear;
    case NbcOp::kGatherv:
      return CollAlg::kGathervLinear;
    case NbcOp::kScatterv:
      return CollAlg::kScattervLinear;
    case NbcOp::kAllgatherv:
      return mv2 ? CollAlg::kAllgathervRing : CollAlg::kAllgathervLinear;
    case NbcOp::kAlltoallv:
      return mv2 ? CollAlg::kAlltoallvPairwise : CollAlg::kAlltoallvLinear;
  }
  return CollAlg::kCount;
}

std::size_t typed_bytes(int count, const Datatype& type, const char* what) {
  JHPC_REQUIRE(count >= 0, std::string(what) + ": negative element count");
  return type.size() * static_cast<std::size_t>(count);
}

void coll_run(const Comm& c, const CollArgs& a) {
  check_args(c, a);
  const ObsAccess h = obs_access(c);
  // hier's own point-to-point steps run on reserved tags.
  const InternalTagScope tags;
  try {
    if (c.suite() == CollectiveSuite::kHier && run_hier(c, a)) return;
    const CollAlg alg =
        select(a, c.suite(), c.size(), c.universe_config());
    CollSpan span(c, alg);
    finish_blocking(start(c, alg, CollAlg::kCount, -1, {}, a, true));
  } catch (const RankFailedError&) {
    // A collective that loses a rank mid-algorithm leaves peers parked
    // in later rounds with nobody left to wake them. Revoking the
    // communicator on the first RankFailedError (as ULFM implementations
    // do for collectives) sweeps those parked operations, so every rank
    // gets a prompt RankFailedError or CommRevokedError instead of a
    // hang. Point-to-point deliberately does not auto-revoke.
    h.uni->revoke_comm(h.context_id, h.world_rank);
    throw;
  }
}

void coll_run_team(const Comm& c, CollAlg alg, std::span<const int> team,
                   int tag, const CollArgs& a) {
  finish_blocking(start(c, alg, CollAlg::kCount, tag, team, a, true));
}

std::shared_ptr<NbcState> coll_start(const Comm& c, const CollArgs& a) {
  check_args(c, a);
  const CollAlg alg = select(a, c.suite(), c.size(), c.universe_config());
  return start(c, alg, nbc_row(a.what), -1, {}, a, false);
}

void coll_run_typed(const Comm& c, CollArgs a, int count,
                    const Datatype& type) {
  a = byte_args(c, a, count, type);
  if (type.contiguous_layout()) return coll_run(c, a);
  TypedStage ts;
  coll_run(c, stage_typed(c, a, count, type, ts));
  ts.finish(type);
}

std::shared_ptr<NbcState> coll_start_typed(const Comm& c, CollArgs a,
                                           int count, const Datatype& type) {
  a = byte_args(c, a, count, type);
  if (type.contiguous_layout()) return coll_start(c, a);
  TypedStage ts;
  const CollArgs staged = stage_typed(c, a, count, type, ts);
  // Moving the stage keeps its heap storage, so the pointers the posted
  // round 0 captured stay valid.
  auto st = coll_start(c, staged);
  st->typed = std::move(ts);
  st->typed_dt = type;
  // The schedule may have drained entirely inside coll_start (all-eager
  // round 0 on a small comm) before its staging was attached.
  if (st->done && !st->failed) st->typed.finish(type);
  return st;
}

void nbc_progress_rank(UniverseImpl& impl, int world_rank) {
  NbcRank& nr = impl.nbc[static_cast<std::size_t>(world_rank)];
  if (nr.driving) return;
  nr.driving = true;
  struct Prune {
    NbcRank& nr;
    ~Prune() {
      nr.driving = false;
      std::erase_if(nr.active, [](const std::shared_ptr<NbcState>& s) {
        return s->done;
      });
    }
  } prune{nr};
  for (std::size_t i = 0; i < nr.active.size(); ++i) try_advance(*nr.active[i]);
}

void nbc_progress_if_active(UniverseImpl& impl, int world_rank) {
  if (!impl.nbc[static_cast<std::size_t>(world_rank)].active.empty())
    nbc_progress_rank(impl, world_rank);
}

void nbc_progress_while_pending(RequestState& rs) {
  if (rs.uni == nullptr) return;
  UniverseImpl& impl = *rs.uni;
  const NbcRank& nr = impl.nbc[static_cast<std::size_t>(rs.owner_world)];
  while (!nr.driving && !nr.active.empty() &&
         !rs.complete.load(std::memory_order_acquire)) {
    nbc_progress_rank(impl, rs.owner_world);
    if (nr.active.empty()) return;
    park_on(rs, 1ms);
  }
}

Status nbc_wait(NbcState& st) {
  const int world = st.group.world_rank(st.my_rank);
  UniverseImpl& impl = *st.impl;
  for (;;) {
    nbc_progress_rank(impl, world);
    if (st.done) {
      if (st.failed) std::rethrow_exception(st.failure);
      return Status{};
    }
    // Blocked on this round (or on the deferred receives): park on the
    // first incomplete request. With a single active schedule the park
    // can be long (completion notifies the condvar); with siblings
    // outstanding it stays short so their rounds keep advancing while we
    // wait out of order.
    const std::size_t live =
        impl.nbc[static_cast<std::size_t>(world)].active.size();
    RequestState* first = nullptr;
    for (const auto* reqs : {&st.pending, &st.deferred}) {
      for (const auto& rs : *reqs) {
        if (first == nullptr && !rs->complete.load(std::memory_order_acquire))
          first = rs.get();
      }
    }
    if (first != nullptr) park_on(*first, live > 1 ? 1ms : 20ms);
    impl.throw_if_aborted();
  }
}

bool nbc_test(NbcState& st, Status* out) {
  nbc_progress_rank(*st.impl, st.group.world_rank(st.my_rank));
  if (!st.done) return false;
  if (st.failed) std::rethrow_exception(st.failure);
  if (out != nullptr) *out = Status{};
  return true;
}

}  // namespace jhpc::minimpi::detail

namespace jhpc::minimpi {

using detail::CollArgs;
using detail::NbcOp;

Request Comm::ibarrier() const {
  return Request{detail::coll_start(*this, {.what = NbcOp::kBarrier})};
}

Request Comm::ibcast(void* buf, std::size_t bytes, int root) const {
  return Request{detail::coll_start(
      *this,
      {.what = NbcOp::kBcast, .in = buf, .out = buf, .size = bytes,
       .root = root})};
}

Request Comm::ireduce(const void* send_buf, void* recv_buf, std::size_t count,
                      BasicKind kind, ReduceOp op, int root) const {
  return Request{detail::coll_start(
      *this, {.what = NbcOp::kReduce, .in = send_buf, .out = recv_buf,
              .size = count, .kind = kind, .op = op, .root = root})};
}

Request Comm::iallreduce(const void* send_buf, void* recv_buf,
                         std::size_t count, BasicKind kind,
                         ReduceOp op) const {
  return Request{detail::coll_start(
      *this, {.what = NbcOp::kAllreduce, .in = send_buf, .out = recv_buf,
              .size = count, .kind = kind, .op = op})};
}

Request Comm::igather(const void* send_buf, std::size_t bytes_per_rank,
                      void* recv_buf, int root) const {
  return Request{detail::coll_start(
      *this, {.what = NbcOp::kGather, .in = send_buf, .out = recv_buf,
              .size = bytes_per_rank, .root = root})};
}

Request Comm::iscatter(const void* send_buf, std::size_t bytes_per_rank,
                       void* recv_buf, int root) const {
  return Request{detail::coll_start(
      *this, {.what = NbcOp::kScatter, .in = send_buf, .out = recv_buf,
              .size = bytes_per_rank, .root = root})};
}

Request Comm::iallgather(const void* send_buf, std::size_t bytes_per_rank,
                         void* recv_buf) const {
  return Request{detail::coll_start(
      *this, {.what = NbcOp::kAllgather, .in = send_buf, .out = recv_buf,
              .size = bytes_per_rank})};
}

Request Comm::ialltoall(const void* send_buf, std::size_t bytes_per_pair,
                        void* recv_buf) const {
  return Request{detail::coll_start(
      *this, {.what = NbcOp::kAlltoall, .in = send_buf, .out = recv_buf,
              .size = bytes_per_pair})};
}

Request Comm::ibcast(void* buf, int count, const Datatype& type,
                     int root) const {
  return Request{detail::coll_start_typed(
      *this, {.what = NbcOp::kBcast, .in = buf, .out = buf, .root = root},
      count, type)};
}

Request Comm::ireduce(const void* send_buf, void* recv_buf, int count,
                      const Datatype& type, ReduceOp op, int root) const {
  return Request{detail::coll_start_typed(
      *this, {.what = NbcOp::kReduce, .in = send_buf, .out = recv_buf,
              .op = op, .root = root},
      count, type)};
}

Request Comm::iallreduce(const void* send_buf, void* recv_buf, int count,
                         const Datatype& type, ReduceOp op) const {
  return Request{detail::coll_start_typed(
      *this, {.what = NbcOp::kAllreduce, .in = send_buf, .out = recv_buf,
              .op = op},
      count, type)};
}

Request Comm::igather(const void* send_buf, int count, const Datatype& type,
                      void* recv_buf, int root) const {
  return Request{detail::coll_start_typed(
      *this, {.what = NbcOp::kGather, .in = send_buf, .out = recv_buf,
              .root = root},
      count, type)};
}

Request Comm::iscatter(const void* send_buf, int count, const Datatype& type,
                       void* recv_buf, int root) const {
  return Request{detail::coll_start_typed(
      *this, {.what = NbcOp::kScatter, .in = send_buf, .out = recv_buf,
              .root = root},
      count, type)};
}

Request Comm::iallgather(const void* send_buf, int count,
                         const Datatype& type, void* recv_buf) const {
  return Request{detail::coll_start_typed(
      *this, {.what = NbcOp::kAllgather, .in = send_buf, .out = recv_buf},
      count, type)};
}

Request Comm::ialltoall(const void* send_buf, int count, const Datatype& type,
                        void* recv_buf) const {
  return Request{detail::coll_start_typed(
      *this, {.what = NbcOp::kAlltoall, .in = send_buf, .out = recv_buf},
      count, type)};
}

}  // namespace jhpc::minimpi
