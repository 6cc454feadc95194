// The collective schedule engine: the one home of every collective
// algorithm shape.
//
// A collective call compiles, at call time, into a per-rank schedule of
// rounds: the communication steps of a round are posted together (recvs
// first), completed together, and only then do the round's local steps
// (reductions, staging copies) run and the next round post. One builder
// per algorithm writes those rounds over participant indices, and
// select() picks the builder for a call from its suite, payload size and
// participant count. Blocking collectives start a schedule and wait for
// it; the i-collectives hand it to the caller inside a Request; the hier
// suite's inter-node leader phase and the context-id agreement run fixed
// builders over a subset of ranks on a reserved tag.
//
// Shape contract: a builder emits one round per blocking point-to-point
// step of the algorithm it models (a sendrecv is one round), so a
// schedule's virtual times are exactly those of the equivalent
// point-to-point code. A receive may be deferred: posted with its round
// but awaited only when the schedule ends (linear algorithms that post
// every receive, then send one message at a time).
//
// Progress model (MPI weak progress): the transport is push-based — a
// posted receive is completed by the sender's deliver() and an eager
// send completes locally — so a schedule needs no progress thread. A
// rank's active schedules advance together whenever it waits: in a
// collective wait or test, and between the short parks of a blocking
// point-to-point wait (wait_request). Out-of-order waits across ranks,
// and blocking calls issued while i-collectives are outstanding, cannot
// starve each other. Compute between an i-collective's initiation and
// its wait genuinely overlaps: round 0 is posted at initiation and peer
// deliveries land in parallel virtual time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "detail/transport.hpp"
#include "jhpc/minimpi/comm.hpp"
#include "jhpc/minimpi/datatype.hpp"

namespace jhpc::minimpi::detail {

// Tag block for schedules of top-level calls: above the fixed reserved
// tags, still inside the reserved (>= kTagBase) space. Each operation
// instance takes one tag from a per-(rank, context) sequence counter —
// ranks agree because collectives are entered in the same order per
// communicator — so concurrent operations on one communicator can never
// cross-match. Within one operation, MPI's per-(src, comm)
// non-overtaking order keeps the rounds apart.
inline constexpr int kTagNbcBase = (1 << 28) + (1 << 12);
inline constexpr int kNbcTagSpan = 1 << 20;

enum class NbcStepKind : std::uint8_t { kSend, kRecv, kReduce, kCopy };

/// Which buffer a step's offset addresses.
enum class NbcBuf : std::uint8_t { kUserIn, kUserOut, kScratch };

/// A position in one of a schedule's buffers.
struct NbcLoc {
  NbcBuf buf = NbcBuf::kUserOut;
  std::size_t off = 0;
  NbcLoc operator+(std::size_t d) const { return {buf, off + d}; }
};

struct NbcStep {
  NbcStepKind kind = NbcStepKind::kCopy;
  /// Receive awaited when the schedule ends, not with its round.
  bool deferred = false;
  int peer = -1;  ///< participant index (send/recv only)
  NbcLoc src{};   ///< send payload / reduce input / copy source
  NbcLoc dst{};   ///< recv target / reduce accumulator / copy dest
  std::size_t len = 0;  ///< bytes (send/recv/copy) or elements (reduce)
};

/// Dense staging of a strided typed collective: the packed send side,
/// the dense receive side, and where the result is scattered on
/// completion.
struct TypedStage {
  std::vector<std::byte> in;
  std::vector<std::byte> out;
  int unpack_count = 0;
  void* unpack_dst = nullptr;  ///< null: this rank receives nothing
  /// Scatter the dense result into the user's buffer. Idempotent.
  void finish(const Datatype& type);
};

/// The whole in-flight operation; shared between its waiter (a Request,
/// or the blocking call) and the owning rank's active-schedule registry.
/// Only the owning rank thread ever touches it.
struct NbcState {
  UniverseImpl* impl = nullptr;
  Group group;
  /// Participant index -> comm rank; empty when the whole communicator
  /// participates (index == comm rank).
  std::vector<int> team;
  int my_rank = -1;  ///< comm rank
  int context_id = 0;
  int tag = 0;
  /// Pvar row and trace span the engine keeps (the i-collectives'
  /// coll.nbc.<op>); kCount when the caller keeps them or nobody does.
  CollAlg row = CollAlg::kCount;
  /// Waited on at once by the thread that started it.
  bool blocking = false;

  const std::byte* user_in = nullptr;
  std::byte* user_out = nullptr;
  BasicKind kind = BasicKind::kByte;  ///< element kind of reduce steps
  ReduceOp op = ReduceOp::kSum;
  std::vector<std::byte> scratch;
  /// Staging of a strided typed i-collective, and its datatype.
  TypedStage typed;
  std::optional<Datatype> typed_dt;

  std::vector<NbcStep> steps;
  /// Round k is steps[round_end[k-1], round_end[k]).
  std::vector<std::uint32_t> round_end;
  std::size_t round = 0;  ///< index of the round being progressed
  bool posted = false;    ///< current round's comm steps are in flight
  /// Virtual time the current round was posted (hist.nbc_round sample).
  std::int64_t round_start_v = 0;
  std::vector<std::shared_ptr<RequestState>> pending;
  /// Requests of deferred receives, awaited after the last round.
  std::vector<std::shared_ptr<RequestState>> deferred;
  bool done = false;
  /// A round failed (rank death, revocation, timeout): the schedule is
  /// poisoned — no further round posts — and every wait/test on it
  /// rethrows `failure`. Set with done so the progress set prunes it.
  bool failed = false;
  std::exception_ptr failure;
};

/// The operations the engine can compile.
enum class NbcOp {
  kBarrier,
  kBcast,
  kReduce,
  kAllreduce,
  kReduceScatterBlock,
  kScan,
  kGather,
  kScatter,
  kAllgather,
  kAlltoall,
  kGatherv,
  kScatterv,
  kAllgatherv,
  kAlltoallv,
};

/// One collective call's arguments.
struct CollArgs {
  NbcOp what = NbcOp::kBarrier;
  const void* in = nullptr;  ///< send buffer
  void* out = nullptr;       ///< receive buffer (bcast: the buffer)
  /// Elements per rank for reduce/allreduce/scan (per block for
  /// reduce_scatter_block); otherwise bytes: per rank, per pair for
  /// alltoall, my send block for gatherv/allgatherv, my receive capacity
  /// for scatterv.
  std::size_t size = 0;
  BasicKind kind = BasicKind::kByte;
  ReduceOp op = ReduceOp::kSum;
  int root = 0;
  /// v ops: per-rank byte counts and displacements of the root's side
  /// (gatherv/scatterv) or the receive side (allgatherv/alltoallv).
  std::span<const std::size_t> counts{};
  std::span<const std::size_t> displs{};
  /// alltoallv: the send side.
  std::span<const std::size_t> scounts{};
  std::span<const std::size_t> sdispls{};
};

/// The algorithm a call runs: the single tuning point for every blocking
/// call and every i-collective (hier runs the mv2 shapes for all that it
/// does not specialise). `n` is the participant count.
CollAlg select(const CollArgs& a, CollectiveSuite suite, int n,
               const UniverseConfig& cfg);

/// Blocking collective on `c`: validates the arguments, then runs the
/// hier suite's two-level algorithm where it has one and otherwise the
/// selected schedule to completion, under the algorithm's pvar row,
/// trace span and wait-state entry stamp.
void coll_run(const Comm& c, const CollArgs& a);

/// Blocking run of the fixed algorithm `alg` among the comm ranks listed
/// in `team` (empty: all of them, in order) on the reserved tag `tag`,
/// with no pvar row or span of its own. Only team members call it, so it
/// leaves the per-communicator tag sequence alone.
void coll_run_team(const Comm& c, CollAlg alg, std::span<const int> team,
                   int tag, const CollArgs& a);

/// Nonblocking collective on `c`: validates, then starts the selected
/// schedule under the op's coll.nbc.<op> row.
std::shared_ptr<NbcState> coll_start(const Comm& c, const CollArgs& a);

/// Typed forms: `count` elements of `type` per rank (per block/pair as
/// for the byte forms), with `a.size` ignored. Dense layouts run the byte
/// forms unchanged; strided ones pack the send side into dense staging at
/// the call — so the send buffer may be reused at once — run the byte
/// algorithm on it (every engine stays bit-identical) and scatter the
/// dense result into the user's buffer on completion. Reductions require
/// type.uniform_leaf().
void coll_run_typed(const Comm& c, CollArgs a, int count,
                    const Datatype& type);
std::shared_ptr<NbcState> coll_start_typed(const Comm& c, CollArgs a,
                                           int count, const Datatype& type);

/// count * type.size() after rejecting a negative count: the one
/// count-to-bytes check of every typed call.
std::size_t typed_bytes(int count, const Datatype& type, const char* what);

/// Drive every active schedule of `world_rank` as far as it can go
/// without blocking; prune the finished ones. Must run on the rank's
/// own thread. A no-op when called from inside the engine.
void nbc_progress_rank(UniverseImpl& impl, int world_rank);

/// nbc_progress_rank, skipped when the rank has no active schedule (the
/// cheap check for polling paths such as test_request).
void nbc_progress_if_active(UniverseImpl& impl, int world_rank);

/// The blocking point-to-point side of the progress rule: while `rs` is
/// incomplete and its owner has active schedules, progress them between
/// short parks. Returns once `rs` completes or no schedule is left (the
/// caller then waits as usual); never progresses from inside the engine.
void nbc_progress_while_pending(RequestState& rs);

/// Block until `st` completes, progressing all of the rank's schedules
/// meanwhile. Returns the (empty) collective Status.
Status nbc_wait(NbcState& st);

/// Non-blocking completion check; progresses the rank's schedules.
bool nbc_test(NbcState& st, Status* out);

}  // namespace jhpc::minimpi::detail
