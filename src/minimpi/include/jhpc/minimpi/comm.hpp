// Communicators: the central user-facing object of the minimpi substrate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "jhpc/minimpi/datatype.hpp"
#include "jhpc/minimpi/group.hpp"
#include "jhpc/minimpi/op.hpp"
#include "jhpc/minimpi/request.hpp"
#include "jhpc/minimpi/types.hpp"

namespace jhpc::obs {
class PvarRegistry;
class Recorder;
}  // namespace jhpc::obs

namespace jhpc::minimpi {

class Comm;
class Universe;
struct UniverseConfig;

namespace detail {
struct UniverseImpl;
struct UniverseObs;
struct RankClock;

/// Internal observability access for the collective suites (which are
/// built strictly on the public Comm API): the job's pre-registered pvar
/// handles, the caller's world rank and virtual clock. `obs` is null when
/// disabled (clock is still valid).
struct ObsAccess {
  UniverseObs* obs = nullptr;
  int world_rank = -1;
  RankClock* clock = nullptr;
  /// Context id of the communicator (wait-at-barrier attribution keys
  /// collective entries by it).
  int context_id = 0;
  /// The owning universe. The hier suite needs more than pvar handles:
  /// the fabric's rank→node map, the per-node shared segments, and the
  /// failure state its flag waits poll. Never null for a valid Comm.
  UniverseImpl* uni = nullptr;
};
ObsAccess obs_access(const Comm& c);
}  // namespace detail

/// A communicator: an isolated communication context over an ordered group
/// of ranks. Point-to-point traffic is matched on (communicator, source,
/// tag) with MPI's non-overtaking ordering; collectives must be entered by
/// every rank of the communicator in the same order.
///
/// Comm is a cheap value type (it holds the group and a context id); it is
/// only usable from the rank thread it belongs to.
class Comm {
 public:
  Comm() = default;

  /// True for a real communicator; false for the "undefined" result of
  /// split() with negative color or create() when not a member.
  bool valid() const { return impl_ != nullptr; }

  int rank() const { return my_rank_; }
  int size() const { return group_.size(); }
  const Group& group() const { return group_; }
  /// The collective-algorithm suite of the owning Universe.
  CollectiveSuite suite() const;
  /// Configuration of the owning Universe (tuning thresholds etc.).
  const UniverseConfig& universe_config() const;

  // --- Blocking point-to-point (byte-oriented payloads) -----------------
  /// Standard-mode blocking send. Completes locally: eager messages are
  /// buffered, rendezvous messages block until the receiver has copied.
  void send(const void* buf, std::size_t bytes, int dst, int tag) const;
  /// Blocking receive into a buffer of `capacity` bytes. Receiving a
  /// larger message throws (truncation is an error, as in MPI).
  void recv(void* buf, std::size_t capacity, int src, int tag,
            Status* status = nullptr) const;
  /// Combined send+receive that cannot deadlock against its mirror image.
  void sendrecv(const void* send_buf, std::size_t send_bytes, int dst,
                int send_tag, void* recv_buf, std::size_t recv_capacity,
                int src, int recv_tag, Status* status = nullptr) const;

  // --- Non-blocking point-to-point ---------------------------------------
  Request isend(const void* buf, std::size_t bytes, int dst, int tag) const;
  Request irecv(void* buf, std::size_t capacity, int src, int tag) const;

  // --- Typed point-to-point (derived datatypes) --------------------------
  // The payload is `count` elements of `type`; Status::bytes reports
  // payload bytes (count * type.size()), as in the byte API. Strided
  // layouts take the one-copy path: eager sends gather runs straight into
  // the recycled transport slab and matched receives scatter straight
  // from it (or, when both sides are live, copy layout-to-layout with no
  // staging at all). Dense layouts are routed to the byte path unchanged.
  void send(const void* buf, int count, const Datatype& type, int dst,
            int tag) const;
  void recv(void* buf, int count, const Datatype& type, int src, int tag,
            Status* status = nullptr) const;
  void sendrecv(const void* send_buf, int send_count,
                const Datatype& send_type, int dst, int send_tag,
                void* recv_buf, int recv_count, const Datatype& recv_type,
                int src, int recv_tag, Status* status = nullptr) const;
  Request isend(const void* buf, int count, const Datatype& type, int dst,
                int tag) const;
  Request irecv(void* buf, int count, const Datatype& type, int src,
                int tag) const;

  // --- Persistent requests ---------------------------------------------------
  /// Create a persistent send (MPI_Send_init): the envelope and buffer are
  /// fixed once; start()/wait() cycles reuse them without re-validation.
  class Prequest send_init(const void* buf, std::size_t bytes, int dst,
                           int tag) const;
  /// Create a persistent receive (MPI_Recv_init).
  class Prequest recv_init(void* buf, std::size_t capacity, int src,
                           int tag) const;

  // --- Probing ------------------------------------------------------------
  /// Block until a matching message is pending; returns its envelope.
  Status probe(int src, int tag) const;
  /// Non-blocking probe; true and fills `status` when a message is pending.
  bool iprobe(int src, int tag, Status* status) const;

  // --- Blocking collectives ------------------------------------------------
  void barrier() const;
  void bcast(void* buf, std::size_t bytes, int root) const;
  /// Element-wise reduction of `count` elements of `kind` to `root`.
  /// send_buf may equal recv_buf on the root (MPI_IN_PLACE semantics).
  void reduce(const void* send_buf, void* recv_buf, std::size_t count,
              BasicKind kind, ReduceOp op, int root) const;
  void allreduce(const void* send_buf, void* recv_buf, std::size_t count,
                 BasicKind kind, ReduceOp op) const;
  /// Element-wise reduction of size()*count elements, block i of the
  /// result delivered to rank i (MPI_Reduce_scatter_block).
  void reduce_scatter_block(const void* send_buf, void* recv_buf,
                            std::size_t count_per_rank, BasicKind kind,
                            ReduceOp op) const;
  /// Inclusive prefix reduction: rank r receives op(ranks 0..r)
  /// (MPI_Scan).
  void scan(const void* send_buf, void* recv_buf, std::size_t count,
            BasicKind kind, ReduceOp op) const;
  /// Fixed-size gather: every rank contributes `bytes_per_rank` bytes;
  /// root receives size()*bytes_per_rank bytes ordered by rank.
  void gather(const void* send_buf, std::size_t bytes_per_rank,
              void* recv_buf, int root) const;
  void scatter(const void* send_buf, std::size_t bytes_per_rank,
               void* recv_buf, int root) const;
  void allgather(const void* send_buf, std::size_t bytes_per_rank,
                 void* recv_buf) const;
  /// Personalised all-to-all: block i of send_buf goes to rank i.
  void alltoall(const void* send_buf, std::size_t bytes_per_pair,
                void* recv_buf) const;

  // --- Typed blocking collectives ----------------------------------------
  // Derived-datatype forms of the collectives above, valid on every
  // engine suite (basic/mv2/nbc/hier): strided payloads are packed
  // through a slab-drawn scratch into the byte engines — so all suites
  // stay bit-identical — and dense layouts skip the shim entirely.
  // Multi-rank buffers (gather/scatter/allgather/alltoall) hold size()
  // blocks of `count` elements each; block i starts at byte offset
  // i * count * type.extent().
  void bcast(void* buf, int count, const Datatype& type, int root) const;
  /// Typed reduction: the leaves of `type` are reduced element-wise with
  /// `op`. Requires type.uniform_leaf(); mixed-leaf structs throw
  /// UnsupportedOperationError.
  void reduce(const void* send_buf, void* recv_buf, int count,
              const Datatype& type, ReduceOp op, int root) const;
  void allreduce(const void* send_buf, void* recv_buf, int count,
                 const Datatype& type, ReduceOp op) const;
  void gather(const void* send_buf, int count, const Datatype& type,
              void* recv_buf, int root) const;
  void scatter(const void* send_buf, int count, const Datatype& type,
               void* recv_buf, int root) const;
  void allgather(const void* send_buf, int count, const Datatype& type,
                 void* recv_buf) const;
  void alltoall(const void* send_buf, int count, const Datatype& type,
                void* recv_buf) const;

  // --- Nonblocking collectives (schedule-based progress engine) ----------
  // Each call compiles a per-rank schedule of rounds, posts its first
  // round immediately and returns a Request handle; the schedule then
  // advances inside Request::wait()/test() (weak progress — compute
  // between the call and the wait overlaps the communication). Buffers
  // must stay untouched until the request completes. Collectives —
  // blocking or not — must be initiated in the same order on every rank
  // of the communicator; waits may then complete in any order.
  Request ibarrier() const;
  Request ibcast(void* buf, std::size_t bytes, int root) const;
  Request ireduce(const void* send_buf, void* recv_buf, std::size_t count,
                  BasicKind kind, ReduceOp op, int root) const;
  Request iallreduce(const void* send_buf, void* recv_buf, std::size_t count,
                     BasicKind kind, ReduceOp op) const;
  Request igather(const void* send_buf, std::size_t bytes_per_rank,
                  void* recv_buf, int root) const;
  Request iscatter(const void* send_buf, std::size_t bytes_per_rank,
                   void* recv_buf, int root) const;
  Request iallgather(const void* send_buf, std::size_t bytes_per_rank,
                     void* recv_buf) const;
  Request ialltoall(const void* send_buf, std::size_t bytes_per_pair,
                    void* recv_buf) const;

  // --- Typed nonblocking collectives --------------------------------------
  // Derived-datatype forms: send-side data is packed at initiation (the
  // buffer may be reused once the call returns, unlike the byte forms),
  // receive-side data is scattered into the strided buffer when the
  // schedule completes inside wait()/test().
  Request ibcast(void* buf, int count, const Datatype& type, int root) const;
  Request ireduce(const void* send_buf, void* recv_buf, int count,
                  const Datatype& type, ReduceOp op, int root) const;
  Request iallreduce(const void* send_buf, void* recv_buf, int count,
                     const Datatype& type, ReduceOp op) const;
  Request igather(const void* send_buf, int count, const Datatype& type,
                  void* recv_buf, int root) const;
  Request iscatter(const void* send_buf, int count, const Datatype& type,
                   void* recv_buf, int root) const;
  Request iallgather(const void* send_buf, int count, const Datatype& type,
                     void* recv_buf) const;
  Request ialltoall(const void* send_buf, int count, const Datatype& type,
                    void* recv_buf) const;

  // --- Vectored blocking collectives ---------------------------------------
  /// counts/displs are per-rank byte counts/offsets into the root buffer.
  void gatherv(const void* send_buf, std::size_t send_bytes, void* recv_buf,
               std::span<const std::size_t> counts,
               std::span<const std::size_t> displs, int root) const;
  void scatterv(const void* send_buf, std::span<const std::size_t> counts,
                std::span<const std::size_t> displs, void* recv_buf,
                std::size_t recv_bytes, int root) const;
  void allgatherv(const void* send_buf, std::size_t send_bytes,
                  void* recv_buf, std::span<const std::size_t> counts,
                  std::span<const std::size_t> displs) const;
  void alltoallv(const void* send_buf,
                 std::span<const std::size_t> send_counts,
                 std::span<const std::size_t> send_displs, void* recv_buf,
                 std::span<const std::size_t> recv_counts,
                 std::span<const std::size_t> recv_displs) const;

  // --- One-sided communication (RMA) ---------------------------------------
  /// Collectively expose `bytes` bytes at `base` as this rank's slice of
  /// a new window (MPI_Win_create). Sizes may differ per rank; 0 with a
  /// null base is a valid (access-only) slice. The memory must outlive
  /// the window.
  class Win win_create(void* base, std::size_t bytes) const;
  /// Collectively create a window over library-owned zeroed memory
  /// (MPI_Win_allocate); freed when the last handle drops.
  class Win win_allocate(std::size_t bytes) const;

  // --- Fault tolerance (ULFM) -----------------------------------------------
  /// Error-handling policy for rank-failure conditions on this
  /// communicator (default kErrorsAreFatal, as in MPI). The handler is a
  /// property of the communicator, shared by all its ranks; new
  /// communicators inherit the parent's handler.
  void set_errhandler(Errhandler eh) const;
  Errhandler errhandler() const;

  /// Revoke this communicator (MPIX_Comm_revoke): every pending and
  /// future operation on it — on every rank — raises CommRevokedError.
  /// Irreversible; survivors rebuild with shrink(). Idempotent.
  void revoke() const;

  /// Agree on the failed set and build a survivors-only communicator with
  /// dense re-ranking (MPIX_Comm_shrink). Collective over the survivors;
  /// works on revoked and failure-stricken communicators. The result
  /// inherits this communicator's error handler.
  Comm shrink() const;

  /// Fault-tolerant agreement (MPIX_Comm_agree): returns the bitwise AND
  /// of `flag` over all participating ranks, identically on every
  /// survivor, even when ranks fail mid-agreement (a rank that dies after
  /// contributing still counts; one that dies before does not).
  int agree(int flag) const;

  /// World ranks of this communicator's group currently known to have
  /// failed (sorted ascending). Purely local snapshot.
  std::vector<int> failed_ranks() const;

  // --- Communicator management ----------------------------------------------
  /// New communicator, same group, fresh context (collective).
  Comm dup() const;
  /// Partition by color; order within a color by (key, old rank).
  /// Negative color yields an invalid Comm for that rank (collective).
  Comm split(int color, int key) const;
  /// Communicator over a subgroup; invalid Comm for non-members
  /// (collective over the parent).
  Comm create(const Group& subgroup) const;

  /// Seconds since an arbitrary epoch (MPI_Wtime). Wall clock.
  static double wtime();

  /// This rank's VIRTUAL time in ns: real per-thread CPU consumed plus
  /// modelled network delays. This is what benchmarks must measure — it
  /// behaves as if every rank had its own core, regardless of how
  /// oversubscribed the host is. Advances the CPU passthrough on call.
  std::int64_t vtime_ns() const;

  // --- Observability (MPI_T-style tool access) ---------------------------
  /// The owning Universe's performance-variable registry, or nullptr when
  /// observability is disabled. Values are indexed by WORLD rank.
  obs::PvarRegistry* pvars() const;
  /// The owning Universe's event recorder, or nullptr when disabled.
  obs::Recorder* recorder() const;

 private:
  friend class Universe;
  friend detail::ObsAccess detail::obs_access(const Comm& c);

  /// Registers the (context id -> group) mapping with the Universe so the
  /// rank-failure reaper can map posted receives back to world identities
  /// (comm.cpp).
  Comm(detail::UniverseImpl* impl, Group group, int my_rank, int context_id);

  /// Binomial broadcast of one int from rank 0 on the internal management
  /// tag (context-id agreement during dup/split/create).
  void bcast_cid(int* value) const;

  /// World rank of communicator rank `r`.
  int world_of(int r) const { return group_.world_rank(r); }
  int my_world() const { return group_.world_rank(my_rank_); }

  detail::UniverseImpl* impl_ = nullptr;
  Group group_;
  int my_rank_ = -1;
  int context_id_ = -1;
};

/// A persistent communication request (MPI_Send_init / MPI_Recv_init):
/// the operation's buffer and envelope are bound at creation; each
/// start() launches one instance, each wait()/test() completes it. Used
/// by iteration-heavy codes (and OMB's persistent variants) to avoid
/// per-iteration request setup.
class Prequest {
 public:
  Prequest() = default;

  bool valid() const { return comm_.valid(); }
  /// True between start() and the completing wait()/test(), even when the
  /// instance finished inside start() (an eager send, or a rendezvous send
  /// that met an already-posted receive) and left no request behind.
  bool active() const { return active_; }

  /// Launch one instance of the operation (MPI_Start). The previous
  /// instance must have completed.
  void start();
  /// Complete the active instance; the request stays reusable.
  void wait(Status* status = nullptr);
  bool test(Status* status = nullptr);

  /// Start every request in the span (MPI_Startall).
  static void start_all(std::span<Prequest> requests);

 private:
  friend class Comm;
  enum class Kind { kSend, kRecv };
  Prequest(Comm comm, Kind kind, void* buf, std::size_t bytes, int peer,
           int tag)
      : comm_(comm), kind_(kind), buf_(buf), bytes_(bytes), peer_(peer),
        tag_(tag) {}

  Comm comm_;
  Kind kind_ = Kind::kSend;
  void* buf_ = nullptr;
  std::size_t bytes_ = 0;
  int peer_ = -1;
  int tag_ = 0;
  Request current_;
  bool active_ = false;
};

}  // namespace jhpc::minimpi
