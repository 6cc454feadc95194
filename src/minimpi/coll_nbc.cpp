// The nonblocking-collective schedule engine (see detail/coll_nbc.hpp).
//
// Split in two halves: schedule COMPILERS that turn one collective call
// into rounds of send/recv/reduce/copy steps (mirroring the mv2 shapes
// in coll_mv2.cpp), and the PROGRESS machinery that drives every active
// schedule of a rank from inside wait()/test().

#include "detail/coll_nbc.hpp"

#include <chrono>
#include <cstring>
#include <utility>

#include "jhpc/minimpi/comm.hpp"
#include "jhpc/minimpi/datatype.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi::detail {

using namespace std::chrono_literals;

namespace {

int floor_pow2(int n) {
  int p = 1;
  while (p * 2 <= n) p *= 2;
  return p;
}

int mod(int a, int n) { return ((a % n) + n) % n; }

std::byte* buf_ptr(NbcState& st, NbcBuf which, std::size_t off) {
  switch (which) {
    case NbcBuf::kUserIn:
      // Never written through: only send payloads and copy/reduce sources
      // address the user's input buffer.
      return const_cast<std::byte*>(st.user_in) + off;
    case NbcBuf::kUserOut:
      return st.user_out + off;
    case NbcBuf::kScratch:
      return st.scratch.data() + off;
  }
  return nullptr;
}

NbcStep send_step(int peer, NbcBuf src, std::size_t off, std::size_t bytes) {
  NbcStep s;
  s.kind = NbcStepKind::kSend;
  s.peer = peer;
  s.src = src;
  s.src_off = off;
  s.bytes = bytes;
  return s;
}

NbcStep recv_step(int peer, NbcBuf dst, std::size_t off, std::size_t bytes) {
  NbcStep s;
  s.kind = NbcStepKind::kRecv;
  s.peer = peer;
  s.dst = dst;
  s.dst_off = off;
  s.bytes = bytes;
  return s;
}

NbcStep copy_step(NbcBuf src, std::size_t soff, NbcBuf dst, std::size_t doff,
                  std::size_t bytes) {
  NbcStep s;
  s.kind = NbcStepKind::kCopy;
  s.src = src;
  s.src_off = soff;
  s.dst = dst;
  s.dst_off = doff;
  s.bytes = bytes;
  return s;
}

NbcStep reduce_step(NbcBuf src, std::size_t soff, NbcBuf acc,
                    std::size_t aoff, std::size_t count) {
  NbcStep s;
  s.kind = NbcStepKind::kReduce;
  s.src = src;
  s.src_off = soff;
  s.dst = acc;
  s.dst_off = aoff;
  s.count = count;
  return s;
}

// --- Schedule compilers ----------------------------------------------------
//
// Each builds st.rounds for this rank and returns the scratch size it
// needs; offsets into scratch are handed out by a bump allocator so a
// later round never aliases an earlier round's in-flight buffer.

std::size_t build_barrier(NbcState& st) {
  // Dissemination: log2(n) rounds of send-to (r+mask), recv-from
  // (r-mask). Distinct out/in token bytes (the blocking version learned
  // that aliasing lesson under TSan).
  const int n = st.group.size();
  const int r = st.my_rank;
  for (int mask = 1; mask < n; mask <<= 1) {
    NbcRound rd;
    rd.comm.push_back(recv_step(mod(r - mask, n), NbcBuf::kScratch, 1, 1));
    rd.comm.push_back(send_step(mod(r + mask, n), NbcBuf::kScratch, 0, 1));
    st.rounds.push_back(std::move(rd));
  }
  return 2;
}

std::size_t build_bcast(NbcState& st, std::size_t bytes, int root) {
  // Binomial tree on relative ranks: receive from the parent, then fan
  // out to every child in one round (largest stride first, matching the
  // blocking order).
  const int n = st.group.size();
  const int rel = mod(st.my_rank - root, n);
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int parent = mod(rel - mask + root, n);
      NbcRound rd;
      rd.comm.push_back(recv_step(parent, NbcBuf::kUserOut, 0, bytes));
      st.rounds.push_back(std::move(rd));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  NbcRound fan;
  while (mask > 0) {
    if (rel + mask < n) {
      const int child = mod(rel + mask + root, n);
      fan.comm.push_back(send_step(child, NbcBuf::kUserOut, 0, bytes));
    }
    mask >>= 1;
  }
  if (!fan.comm.empty()) st.rounds.push_back(std::move(fan));
  return 0;
}

std::size_t build_reduce(NbcState& st, std::size_t count, int root) {
  // Binomial fan-in on relative ranks (reduce_binomial's shape): each
  // child round receives a partial result and folds it into the
  // accumulator; a non-root rank finally sends its accumulator up.
  const int n = st.group.size();
  const int r = st.my_rank;
  const std::size_t bytes = count * basic_size(st.kind);
  const int rel = mod(r - root, n);

  std::size_t scratch = 0;
  auto alloc = [&scratch](std::size_t b) {
    const std::size_t off = scratch;
    scratch += b;
    return off;
  };

  // Accumulator: the root reduces straight into the user's output; other
  // ranks stage in scratch.
  const NbcBuf acc = r == root ? NbcBuf::kUserOut : NbcBuf::kScratch;
  const std::size_t acc_off = r == root ? 0 : alloc(bytes);
  NbcRound init;
  init.local.push_back(copy_step(NbcBuf::kUserIn, 0, acc, acc_off, bytes));
  st.rounds.push_back(std::move(init));

  int mask = 1;
  while (mask < n) {
    if ((rel & mask) == 0) {
      const int src_rel = rel | mask;
      if (src_rel < n) {
        const std::size_t tmp = alloc(bytes);
        NbcRound rd;
        rd.comm.push_back(recv_step(mod(src_rel + root, n), NbcBuf::kScratch,
                                    tmp, bytes));
        rd.local.push_back(
            reduce_step(NbcBuf::kScratch, tmp, acc, acc_off, count));
        st.rounds.push_back(std::move(rd));
      }
    } else {
      NbcRound rd;
      rd.comm.push_back(
          send_step(mod((rel & ~mask) + root, n), acc, acc_off, bytes));
      st.rounds.push_back(std::move(rd));
      break;
    }
    mask <<= 1;
  }
  return scratch;
}

std::size_t build_allreduce(NbcState& st, std::size_t count) {
  // Recursive doubling with the standard fold of the ranks beyond the
  // largest power of two (allreduce_recursive_doubling's shape).
  const int n = st.group.size();
  const int r = st.my_rank;
  const std::size_t bytes = count * basic_size(st.kind);
  const int pof2 = floor_pow2(n);
  const int rem = n - pof2;

  std::size_t scratch = 0;
  auto alloc = [&scratch](std::size_t b) {
    const std::size_t off = scratch;
    scratch += b;
    return off;
  };

  NbcRound init;
  init.local.push_back(
      copy_step(NbcBuf::kUserIn, 0, NbcBuf::kUserOut, 0, bytes));
  st.rounds.push_back(std::move(init));

  // Fold-in: the first 2*rem ranks pair up so pof2 participants remain.
  int newrank;
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      NbcRound rd;
      rd.comm.push_back(send_step(r + 1, NbcBuf::kUserOut, 0, bytes));
      st.rounds.push_back(std::move(rd));
      newrank = -1;  // sits out; receives the result at the end
    } else {
      const std::size_t tmp = alloc(bytes);
      NbcRound rd;
      rd.comm.push_back(recv_step(r - 1, NbcBuf::kScratch, tmp, bytes));
      rd.local.push_back(
          reduce_step(NbcBuf::kScratch, tmp, NbcBuf::kUserOut, 0, count));
      st.rounds.push_back(std::move(rd));
      newrank = r / 2;
    }
  } else {
    newrank = r - rem;
  }

  if (newrank != -1) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int partner_new = newrank ^ mask;
      const int partner =
          partner_new < rem ? partner_new * 2 + 1 : partner_new + rem;
      const std::size_t tmp = alloc(bytes);
      NbcRound rd;
      rd.comm.push_back(recv_step(partner, NbcBuf::kScratch, tmp, bytes));
      rd.comm.push_back(send_step(partner, NbcBuf::kUserOut, 0, bytes));
      rd.local.push_back(
          reduce_step(NbcBuf::kScratch, tmp, NbcBuf::kUserOut, 0, count));
      st.rounds.push_back(std::move(rd));
    }
  }

  // Fold-out: hand the result back to the even folded ranks.
  if (r < 2 * rem) {
    NbcRound rd;
    if (r % 2 != 0) {
      rd.comm.push_back(send_step(r - 1, NbcBuf::kUserOut, 0, bytes));
    } else {
      rd.comm.push_back(recv_step(r + 1, NbcBuf::kUserOut, 0, bytes));
    }
    st.rounds.push_back(std::move(rd));
  }
  return scratch;
}

std::size_t build_gather(NbcState& st, std::size_t bpr, int root) {
  // Flat fan-in: the root posts every receive in one round, so all
  // children stream concurrently while the caller computes.
  const int n = st.group.size();
  const int r = st.my_rank;
  NbcRound rd;
  if (r == root) {
    for (int i = 0; i < n; ++i) {
      if (i == root) continue;
      rd.comm.push_back(recv_step(i, NbcBuf::kUserOut,
                                  static_cast<std::size_t>(i) * bpr, bpr));
    }
    rd.local.push_back(copy_step(NbcBuf::kUserIn, 0, NbcBuf::kUserOut,
                                 static_cast<std::size_t>(root) * bpr, bpr));
  } else {
    rd.comm.push_back(send_step(root, NbcBuf::kUserIn, 0, bpr));
  }
  st.rounds.push_back(std::move(rd));
  return 0;
}

std::size_t build_scatter(NbcState& st, std::size_t bpr, int root) {
  // Flat fan-out, mirror of build_gather.
  const int n = st.group.size();
  const int r = st.my_rank;
  NbcRound rd;
  if (r == root) {
    for (int i = 0; i < n; ++i) {
      if (i == root) continue;
      rd.comm.push_back(send_step(i, NbcBuf::kUserIn,
                                  static_cast<std::size_t>(i) * bpr, bpr));
    }
    rd.local.push_back(copy_step(NbcBuf::kUserIn,
                                 static_cast<std::size_t>(root) * bpr,
                                 NbcBuf::kUserOut, 0, bpr));
  } else {
    rd.comm.push_back(recv_step(root, NbcBuf::kUserOut, 0, bpr));
  }
  st.rounds.push_back(std::move(rd));
  return 0;
}

std::size_t build_allgather(NbcState& st, std::size_t bpr) {
  // Ring: n-1 rounds, each forwarding the block received the round
  // before (allgather_ring's shape; works for any n).
  const int n = st.group.size();
  const int r = st.my_rank;
  NbcRound init;
  init.local.push_back(copy_step(NbcBuf::kUserIn, 0, NbcBuf::kUserOut,
                                 static_cast<std::size_t>(r) * bpr, bpr));
  st.rounds.push_back(std::move(init));
  const int right = mod(r + 1, n);
  const int left = mod(r - 1, n);
  for (int k = 0; k < n - 1; ++k) {
    const auto send_blk = static_cast<std::size_t>(mod(r - k, n));
    const auto recv_blk = static_cast<std::size_t>(mod(r - k - 1, n));
    NbcRound rd;
    rd.comm.push_back(
        recv_step(left, NbcBuf::kUserOut, recv_blk * bpr, bpr));
    rd.comm.push_back(
        send_step(right, NbcBuf::kUserOut, send_blk * bpr, bpr));
    st.rounds.push_back(std::move(rd));
  }
  return 0;
}

std::size_t build_alltoall(NbcState& st, std::size_t bpp) {
  // Pairwise exchange: round k trades blocks with (r+k) / (r-k)
  // (alltoall_pairwise's shape).
  const int n = st.group.size();
  const int r = st.my_rank;
  NbcRound init;
  init.local.push_back(copy_step(NbcBuf::kUserIn,
                                 static_cast<std::size_t>(r) * bpp,
                                 NbcBuf::kUserOut,
                                 static_cast<std::size_t>(r) * bpp, bpp));
  st.rounds.push_back(std::move(init));
  for (int k = 1; k < n; ++k) {
    const int dst = mod(r + k, n);
    const int src = mod(r - k, n);
    NbcRound rd;
    rd.comm.push_back(recv_step(src, NbcBuf::kUserOut,
                                static_cast<std::size_t>(src) * bpp, bpp));
    rd.comm.push_back(send_step(dst, NbcBuf::kUserIn,
                                static_cast<std::size_t>(dst) * bpp, bpp));
    st.rounds.push_back(std::move(rd));
  }
  return 0;
}

// --- Progress machinery ----------------------------------------------------

void run_local_steps(NbcState& st, const NbcRound& rd, RankClock& clock) {
  if (rd.local.empty()) return;
  ChargedSection cost(clock);
  for (const NbcStep& s : rd.local) {
    if (s.kind == NbcStepKind::kCopy) {
      const std::byte* src = buf_ptr(st, s.src, s.src_off);
      std::byte* dst = buf_ptr(st, s.dst, s.dst_off);
      if (s.bytes != 0 && dst != src) std::memcpy(dst, src, s.bytes);
    } else {  // kReduce: accumulator op= incoming
      apply_reduce(st.op, st.kind, buf_ptr(st, s.dst, s.dst_off),
                   buf_ptr(st, s.src, s.src_off), s.count);
    }
  }
}

void post_round(NbcState& st, int world, RankClock& clock, UniverseObs* o) {
  const NbcRound& rd = st.rounds[st.round];
  clock.advance_cpu();
  st.round_start_v = clock.vclock;
  if (o != nullptr) o->rec.begin(world, "nbc.round", clock.vclock);
  // Receives first, then sends: every peer's receive is visible before
  // any send might park as an unexpected rendezvous.
  for (const NbcStep& s : rd.comm) {
    if (s.kind != NbcStepKind::kRecv) continue;
    st.pending.push_back(st.impl->post_recv(world, st.context_id, s.peer,
                                            st.tag,
                                            buf_ptr(st, s.dst, s.dst_off),
                                            s.bytes));
  }
  for (const NbcStep& s : rd.comm) {
    if (s.kind != NbcStepKind::kSend) continue;
    auto p = st.impl->deliver(world, st.group.world_rank(s.peer),
                              st.context_id, st.my_rank, st.tag,
                              buf_ptr(st, s.src, s.src_off), s.bytes);
    if (p) st.pending.push_back(std::move(p));
  }
  st.posted = true;
}

bool round_requests_complete(NbcState& st) {
  for (const auto& rs : st.pending) {
    if (!rs->complete.load(std::memory_order_acquire)) return false;
  }
  return true;
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
  // Cancel parked receives FIRST: their targets point into this
  // schedule's scratch, and a late match would write through a dangling
  // buffer once the state is pruned.
  MatchBucket& bk =
      st.impl->endpoints[static_cast<std::size_t>(world)]->bucket(
          st.context_id);
  {
    std::lock_guard<std::mutex> lk(bk.mu);
    for (const auto& rs : st.pending) {
      if (rs->is_recv) std::erase(bk.posted, rs);
    }
  }
  st.pending.clear();
  st.failed = true;
  st.failure = ep;
  st.done = true;
  try {
    std::rethrow_exception(ep);
  } catch (const RankFailedError&) {
    st.impl->revoke_comm(st.context_id, world);
  } catch (...) {
    // Timeouts and other transport failures poison only this schedule.
  }
  if (o != nullptr) {
    clock.advance_cpu();
    if (st.posted) o->rec.end(world, "nbc.round", clock.vclock);
    o->rec.end(world, coll_alg_trace_name(st.alg), clock.vclock);
  }
  st.posted = false;
}

/// Completion hook for typed schedules: scatter the dense result into
/// the user's strided buffer. Idempotent — nbc_start_typed also calls it
/// when a schedule completes inside initiation, before the staging
/// fields were set.
void finish_typed(NbcState& st) {
  if (!st.unpack_dt) return;
  st.unpack_dt->unpack(st.typed_out.data(), st.unpack_dst, st.unpack_count);
  st.unpack_dt.reset();
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
        if (st.round >= st.rounds.size()) {
          finish_typed(st);
          st.done = true;
          if (o != nullptr) {
            clock.advance_cpu();
            o->rec.end(world, coll_alg_trace_name(st.alg), clock.vclock);
          }
          return true;
        }
        post_round(st, world, clock, o);
      }
      if (!round_requests_complete(st)) return false;
      // Finalize in posting order: wait_request returns immediately on a
      // completed request but still observes its delivery time (the rank's
      // clock jumps to the round's critical path) and charges the wait
      // pvars — identical accounting to the blocking suites.
      for (const auto& rs : st.pending) wait_request(*rs);
      st.pending.clear();
      run_local_steps(st, st.rounds[st.round], clock);
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

}  // namespace

void nbc_progress_rank(UniverseImpl& impl, int world_rank) {
  NbcRank& nr = impl.nbc[static_cast<std::size_t>(world_rank)];
  bool any_done = false;
  for (const auto& st : nr.active) {
    if (try_advance(*st)) any_done = true;
  }
  if (any_done) {
    std::erase_if(nr.active,
                  [](const std::shared_ptr<NbcState>& s) { return s->done; });
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
    // Blocked on this round: park on its first incomplete request. With
    // a single active schedule the park can be long (completion notifies
    // the condvar); with siblings outstanding it stays short so their
    // rounds keep advancing while we wait out of order.
    const std::size_t live = impl.nbc[static_cast<std::size_t>(world)]
                                 .active.size();
    std::shared_ptr<RequestState> first;
    for (const auto& rs : st.pending) {
      if (!rs->complete.load(std::memory_order_acquire)) {
        first = rs;
        break;
      }
    }
    if (first) park_on(*first, live > 1 ? 1ms : 20ms);
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

std::shared_ptr<NbcState> nbc_start(UniverseImpl* impl, const Group& group,
                                    int my_rank, int context_id, NbcOp what,
                                    const void* send_buf, void* recv_buf,
                                    std::size_t size, BasicKind kind,
                                    ReduceOp op, int root) {
  auto st = std::make_shared<NbcState>();
  st->impl = impl;
  st->group = group;
  st->my_rank = my_rank;
  st->context_id = context_id;
  st->user_in = static_cast<const std::byte*>(send_buf);
  st->user_out = static_cast<std::byte*>(recv_buf);
  st->kind = kind;
  st->op = op;

  const int world = group.world_rank(my_rank);
  NbcRank& nr = impl->nbc[static_cast<std::size_t>(world)];
  const std::uint32_t seq = nr.seq[context_id]++;
  st->tag = kTagNbcBase + static_cast<int>(seq % kNbcTagSpan);

  std::size_t scratch = 0;
  switch (what) {
    case NbcOp::kBarrier:
      st->alg = CollAlg::kNbcBarrier;
      scratch = build_barrier(*st);
      break;
    case NbcOp::kBcast:
      st->alg = CollAlg::kNbcBcast;
      scratch = build_bcast(*st, size, root);
      break;
    case NbcOp::kReduce:
      st->alg = CollAlg::kNbcReduce;
      scratch = build_reduce(*st, size, root);
      break;
    case NbcOp::kAllreduce:
      st->alg = CollAlg::kNbcAllreduce;
      scratch = build_allreduce(*st, size);
      break;
    case NbcOp::kGather:
      st->alg = CollAlg::kNbcGather;
      scratch = build_gather(*st, size, root);
      break;
    case NbcOp::kScatter:
      st->alg = CollAlg::kNbcScatter;
      scratch = build_scatter(*st, size, root);
      break;
    case NbcOp::kAllgather:
      st->alg = CollAlg::kNbcAllgather;
      scratch = build_allgather(*st, size);
      break;
    case NbcOp::kAlltoall:
      st->alg = CollAlg::kNbcAlltoall;
      scratch = build_alltoall(*st, size);
      break;
  }
  st->scratch.resize(scratch);

  RankClock& clock = impl->clocks[static_cast<std::size_t>(world)];
  clock.advance_cpu();
  if (UniverseObs* o = impl->obs.get()) {
    o->rec.pvars().add(o->coll[static_cast<std::size_t>(st->alg)], world, 1);
    o->rec.begin(world, coll_alg_trace_name(st->alg), clock.vclock);
  }

  nr.active.push_back(st);
  // Post round 0 now — the overlap window opens at initiation, not at
  // the first wait/test.
  nbc_progress_rank(*impl, world);
  return st;
}

std::shared_ptr<NbcState> nbc_start_typed(
    UniverseImpl* impl, const Group& group, int my_rank, int context_id,
    NbcOp what, const void* send_buf, void* recv_buf, int count,
    const Datatype& type, ReduceOp op, int root) {
  JHPC_REQUIRE(count >= 0, "typed collective: negative element count");
  const std::size_t bytes = type.size() * static_cast<std::size_t>(count);
  const std::size_t n = static_cast<std::size_t>(group.size());
  const int total = count * group.size();
  const bool is_root = my_rank == root;

  BasicKind kind = BasicKind::kByte;
  std::size_t size_param = bytes;
  if (what == NbcOp::kReduce || what == NbcOp::kAllreduce) {
    if (!type.uniform_leaf()) {
      throw UnsupportedOperationError(
          "typed reduction requires a uniform leaf kind (mixed-leaf "
          "structs are not element-wise reducible)");
    }
    kind = type.leaf_kind();
    size_param = bytes / basic_size(kind);
  }

  // Pack the send-side payload into staging the schedule will own. The
  // vectors are moved into the state after nbc_start — a move transfers
  // the heap storage, so the user_in/user_out pointers captured by the
  // already-posted round 0 stay valid.
  std::vector<std::byte> tin;
  std::vector<std::byte> tout;
  switch (what) {
    case NbcOp::kBarrier:
      break;
    case NbcOp::kBcast:
      tout.resize(bytes);
      if (is_root) type.pack(recv_buf, tout.data(), count);
      break;
    case NbcOp::kReduce:
    case NbcOp::kAllreduce:
      tin.resize(bytes);
      tout.resize(bytes);
      type.pack(send_buf, tin.data(), count);
      break;
    case NbcOp::kGather:
      tin.resize(bytes);
      type.pack(send_buf, tin.data(), count);
      if (is_root) tout.resize(bytes * n);
      break;
    case NbcOp::kScatter:
      if (is_root) {
        tin.resize(bytes * n);
        type.pack(send_buf, tin.data(), total);
      }
      tout.resize(bytes);
      break;
    case NbcOp::kAllgather:
      tin.resize(bytes);
      type.pack(send_buf, tin.data(), count);
      tout.resize(bytes * n);
      break;
    case NbcOp::kAlltoall:
      tin.resize(bytes * n);
      type.pack(send_buf, tin.data(), total);
      tout.resize(bytes * n);
      break;
  }

  auto st = nbc_start(impl, group, my_rank, context_id, what,
                      tin.empty() ? nullptr : tin.data(),
                      tout.empty() ? nullptr : tout.data(), size_param, kind,
                      op, root);
  st->typed_in = std::move(tin);
  st->typed_out = std::move(tout);

  // Which ranks scatter the dense result back out, and how much of it.
  bool unpack = false;
  int elems = count;
  switch (what) {
    case NbcOp::kBarrier:
      break;
    case NbcOp::kBcast:
      unpack = !is_root;
      break;
    case NbcOp::kReduce:
      unpack = is_root;
      break;
    case NbcOp::kAllreduce:
    case NbcOp::kScatter:
      unpack = true;
      break;
    case NbcOp::kGather:
      unpack = is_root;
      elems = total;
      break;
    case NbcOp::kAllgather:
    case NbcOp::kAlltoall:
      unpack = true;
      elems = total;
      break;
  }
  if (unpack) {
    st->unpack_dt = type;
    st->unpack_count = elems;
    st->unpack_dst = recv_buf;
    // The schedule may have drained entirely inside nbc_start (all-eager
    // round 0 on a small comm): the completion hook ran before the
    // staging fields existed, so run it now.
    if (st->done && !st->failed) finish_typed(*st);
  }
  return st;
}

}  // namespace jhpc::minimpi::detail

namespace jhpc::minimpi {

namespace {

void check_comm(const Comm& c, const char* what) {
  JHPC_REQUIRE(c.valid(), std::string(what) + " on an invalid communicator");
}

void check_root(const Comm& c, int root, const char* what) {
  JHPC_REQUIRE(root >= 0 && root < c.size(),
               std::string(what) + ": root rank out of range");
}

}  // namespace

Request Comm::ibarrier() const {
  check_comm(*this, "ibarrier");
  return Request{detail::nbc_start(impl_, group_, my_rank_, context_id_,
                                   detail::NbcOp::kBarrier, nullptr, nullptr,
                                   0, BasicKind::kByte, ReduceOp::kSum, 0)};
}

Request Comm::ibcast(void* buf, std::size_t bytes, int root) const {
  check_comm(*this, "ibcast");
  check_root(*this, root, "ibcast");
  return Request{detail::nbc_start(impl_, group_, my_rank_, context_id_,
                                   detail::NbcOp::kBcast, buf, buf, bytes,
                                   BasicKind::kByte, ReduceOp::kSum, root)};
}

Request Comm::ireduce(const void* send_buf, void* recv_buf, std::size_t count,
                      BasicKind kind, ReduceOp op, int root) const {
  check_comm(*this, "ireduce");
  check_root(*this, root, "ireduce");
  return Request{detail::nbc_start(impl_, group_, my_rank_, context_id_,
                                   detail::NbcOp::kReduce, send_buf, recv_buf,
                                   count, kind, op, root)};
}

Request Comm::iallreduce(const void* send_buf, void* recv_buf,
                         std::size_t count, BasicKind kind,
                         ReduceOp op) const {
  check_comm(*this, "iallreduce");
  return Request{detail::nbc_start(impl_, group_, my_rank_, context_id_,
                                   detail::NbcOp::kAllreduce, send_buf,
                                   recv_buf, count, kind, op, 0)};
}

Request Comm::igather(const void* send_buf, std::size_t bytes_per_rank,
                      void* recv_buf, int root) const {
  check_comm(*this, "igather");
  check_root(*this, root, "igather");
  return Request{detail::nbc_start(impl_, group_, my_rank_, context_id_,
                                   detail::NbcOp::kGather, send_buf, recv_buf,
                                   bytes_per_rank, BasicKind::kByte,
                                   ReduceOp::kSum, root)};
}

Request Comm::iscatter(const void* send_buf, std::size_t bytes_per_rank,
                       void* recv_buf, int root) const {
  check_comm(*this, "iscatter");
  check_root(*this, root, "iscatter");
  return Request{detail::nbc_start(impl_, group_, my_rank_, context_id_,
                                   detail::NbcOp::kScatter, send_buf,
                                   recv_buf, bytes_per_rank, BasicKind::kByte,
                                   ReduceOp::kSum, root)};
}

Request Comm::iallgather(const void* send_buf, std::size_t bytes_per_rank,
                         void* recv_buf) const {
  check_comm(*this, "iallgather");
  return Request{detail::nbc_start(impl_, group_, my_rank_, context_id_,
                                   detail::NbcOp::kAllgather, send_buf,
                                   recv_buf, bytes_per_rank, BasicKind::kByte,
                                   ReduceOp::kSum, 0)};
}

Request Comm::ialltoall(const void* send_buf, std::size_t bytes_per_pair,
                        void* recv_buf) const {
  check_comm(*this, "ialltoall");
  return Request{detail::nbc_start(impl_, group_, my_rank_, context_id_,
                                   detail::NbcOp::kAlltoall, send_buf,
                                   recv_buf, bytes_per_pair, BasicKind::kByte,
                                   ReduceOp::kSum, 0)};
}

// --- Typed (derived-datatype) nonblocking collectives -----------------------
// Dense layouts route straight to the byte forms above; strided layouts
// go through nbc_start_typed's schedule-owned staging.

namespace {

std::size_t inbc_bytes(int count, const Datatype& type, const char* what) {
  JHPC_REQUIRE(count >= 0,
               std::string(what) + ": negative element count");
  return type.size() * static_cast<std::size_t>(count);
}

// Leaf kind for a typed reduction; even a dense (contiguous-layout)
// struct can mix leaves, so both routes must check.
BasicKind inbc_reduce_leaf(const Datatype& type) {
  if (!type.uniform_leaf()) {
    throw UnsupportedOperationError(
        "typed reduction requires a uniform leaf kind (mixed-leaf "
        "structs are not element-wise reducible)");
  }
  return type.leaf_kind();
}

}  // namespace

Request Comm::ibcast(void* buf, int count, const Datatype& type,
                     int root) const {
  check_comm(*this, "ibcast");
  check_root(*this, root, "ibcast");
  const std::size_t bytes = inbc_bytes(count, type, "ibcast");
  if (type.contiguous_layout()) return ibcast(buf, bytes, root);
  return Request{detail::nbc_start_typed(impl_, group_, my_rank_,
                                         context_id_, detail::NbcOp::kBcast,
                                         buf, buf, count, type,
                                         ReduceOp::kSum, root)};
}

Request Comm::ireduce(const void* send_buf, void* recv_buf, int count,
                      const Datatype& type, ReduceOp op, int root) const {
  check_comm(*this, "ireduce");
  check_root(*this, root, "ireduce");
  const std::size_t bytes = inbc_bytes(count, type, "ireduce");
  const BasicKind leaf = inbc_reduce_leaf(type);
  if (type.contiguous_layout()) {
    return ireduce(send_buf, recv_buf, bytes / basic_size(leaf), leaf, op,
                   root);
  }
  return Request{detail::nbc_start_typed(impl_, group_, my_rank_,
                                         context_id_, detail::NbcOp::kReduce,
                                         send_buf, recv_buf, count, type, op,
                                         root)};
}

Request Comm::iallreduce(const void* send_buf, void* recv_buf, int count,
                         const Datatype& type, ReduceOp op) const {
  check_comm(*this, "iallreduce");
  const std::size_t bytes = inbc_bytes(count, type, "iallreduce");
  const BasicKind leaf = inbc_reduce_leaf(type);
  if (type.contiguous_layout()) {
    return iallreduce(send_buf, recv_buf, bytes / basic_size(leaf), leaf,
                      op);
  }
  return Request{detail::nbc_start_typed(
      impl_, group_, my_rank_, context_id_, detail::NbcOp::kAllreduce,
      send_buf, recv_buf, count, type, op, 0)};
}

Request Comm::igather(const void* send_buf, int count, const Datatype& type,
                      void* recv_buf, int root) const {
  check_comm(*this, "igather");
  check_root(*this, root, "igather");
  const std::size_t bytes = inbc_bytes(count, type, "igather");
  if (type.contiguous_layout()) {
    return igather(send_buf, bytes, recv_buf, root);
  }
  return Request{detail::nbc_start_typed(impl_, group_, my_rank_,
                                         context_id_, detail::NbcOp::kGather,
                                         send_buf, recv_buf, count, type,
                                         ReduceOp::kSum, root)};
}

Request Comm::iscatter(const void* send_buf, int count, const Datatype& type,
                       void* recv_buf, int root) const {
  check_comm(*this, "iscatter");
  check_root(*this, root, "iscatter");
  const std::size_t bytes = inbc_bytes(count, type, "iscatter");
  if (type.contiguous_layout()) {
    return iscatter(send_buf, bytes, recv_buf, root);
  }
  return Request{detail::nbc_start_typed(impl_, group_, my_rank_,
                                         context_id_, detail::NbcOp::kScatter,
                                         send_buf, recv_buf, count, type,
                                         ReduceOp::kSum, root)};
}

Request Comm::iallgather(const void* send_buf, int count,
                         const Datatype& type, void* recv_buf) const {
  check_comm(*this, "iallgather");
  const std::size_t bytes = inbc_bytes(count, type, "iallgather");
  if (type.contiguous_layout()) {
    return iallgather(send_buf, bytes, recv_buf);
  }
  return Request{detail::nbc_start_typed(
      impl_, group_, my_rank_, context_id_, detail::NbcOp::kAllgather,
      send_buf, recv_buf, count, type, ReduceOp::kSum, 0)};
}

Request Comm::ialltoall(const void* send_buf, int count, const Datatype& type,
                        void* recv_buf) const {
  check_comm(*this, "ialltoall");
  const std::size_t bytes = inbc_bytes(count, type, "ialltoall");
  if (type.contiguous_layout()) {
    return ialltoall(send_buf, bytes, recv_buf);
  }
  return Request{detail::nbc_start_typed(
      impl_, group_, my_rank_, context_id_, detail::NbcOp::kAlltoall,
      send_buf, recv_buf, count, type, ReduceOp::kSum, 0)};
}

}  // namespace jhpc::minimpi
