// Internal transport machinery of minimpi: endpoints, message matching,
// eager/rendezvous delivery. Not installed; shared by the minimpi .cpp
// files and white-box tests only.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <optional>

#include "detail/slab.hpp"
#include "jhpc/minimpi/datatype.hpp"
#include "jhpc/minimpi/types.hpp"
#include "jhpc/minimpi/universe.hpp"
#include "jhpc/netsim/fabric.hpp"
#include "jhpc/obs/obs.hpp"
#include "jhpc/obs/recorder.hpp"
#include "jhpc/obs/waitstate.hpp"
#include "jhpc/support/clock.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi::detail {

/// Collective algorithms the suites can run; each has one pvar so
/// figures can cite exactly which algorithm served a message-size range.
/// The schedule engine (coll_nbc.cpp) has one builder per mv2/basic row.
enum class CollAlg : int {
  // mv2 suite
  kBarrierDissemination,
  kBcastBinomial,
  kBcastScatterRing,
  kReduceBinomial,
  kAllreduceRecursiveDoubling,
  kAllreduceRing,
  kReduceScatterRing,
  kScanRecursiveDoubling,
  kGatherBinomial,
  kScatterBinomial,
  kAllgatherRecursiveDoubling,
  kAllgatherRing,
  kAlltoallPairwise,
  kAllgathervRing,
  kAlltoallvPairwise,
  // basic suite (flat linear algorithms)
  kBarrierLinear,
  kBcastLinear,
  kReduceLinear,
  kAllreduceLinear,
  kReduceScatterLinear,
  kScanLinear,
  kGatherLinear,
  kScatterLinear,
  kAllgatherLinear,
  kAlltoallLinear,
  kAllgathervLinear,
  kAlltoallvLinear,
  // vectored root collectives, shared by both suites
  kGathervLinear,
  kScattervLinear,
  // nonblocking collectives: one pvar per operation, whatever the shape
  kNbcBarrier,
  kNbcBcast,
  kNbcReduce,
  kNbcAllreduce,
  kNbcGather,
  kNbcScatter,
  kNbcAllgather,
  kNbcAlltoall,
  // hier suite (coll_hier.cpp): two-level topology-aware algorithms
  kHierBarrier,
  kHierBcast,
  kHierReduce,
  kHierAllreduce,
  kHierGather,
  kCount,
};

/// Pvar name ("coll.bcast.binomial") and trace label ("bcast[binomial]").
const char* coll_alg_pvar_name(CollAlg alg);
const char* coll_alg_trace_name(CollAlg alg);

/// The observability state of one Universe: the recorder plus every
/// pre-registered transport/collective pvar handle. UniverseImpl holds a
/// null pointer when observability is disabled, so instrumentation sites
/// cost exactly one inline pointer test.
struct UniverseObs {
  UniverseObs(const obs::ObsConfig& config, int ranks, bool faults,
              bool kills);

  obs::Recorder rec;

  // Transport counters (per world rank).
  obs::PvarId msgs_sent, bytes_sent, msgs_recvd, bytes_recvd;
  obs::PvarId eager_sent, rndv_sent;
  obs::PvarId unexpected_hwm;  ///< unexpected-queue depth high-water mark
  obs::PvarId wait_count, wait_ns;
  /// Split of wait_count by how each wait ended: the completion was seen
  /// during the spin phase, or the wait reached the futex park.
  obs::PvarId wait_spun, wait_parked;

  /// Reliable-transport fault counters. Registered only when the job's
  /// fault plan is enabled, so a fault-free job's pvar table is identical
  /// to a build without this layer (zero-cost-off). Drops/retransmits/
  /// timeouts are charged to the sender's rank slot; ack drops and
  /// suppressed duplicates to the receiver's.
  obs::PvarId fault_data_drops, fault_ack_drops, fault_retransmits;
  obs::PvarId fault_dups, fault_rndv_retries, fault_timeouts;

  /// Rank-failure counters (ULFM layer). Registered only when the job's
  /// fault plan schedules rank kills; `has_rank_pvars` guards every add so
  /// a programmatic Universe::kill_rank on an unconfigured job cannot
  /// touch unregistered ids.
  bool has_rank_pvars = false;
  obs::PvarId fault_rank_kills;     ///< fail-stops executed (dead rank slot)
  obs::PvarId fault_rank_detected;  ///< RankFailedError raises (observer)
  obs::PvarId fault_rank_revokes;   ///< first revoke per comm (initiator)
  obs::PvarId fault_rank_shrinks;   ///< shrink completions (per rank)
  obs::PvarId fault_rank_agrees;    ///< agree completions (per rank)

  /// Eager slab-recycler counters (see detail/slab.hpp). Hits/misses are
  /// charged to the sender's rank slot, recycled bytes and overflow
  /// drops to the releasing (receiver) rank's.
  obs::PvarId slab_hits, slab_misses;
  obs::PvarId slab_recycled_bytes, slab_overflow_drops;

  /// Derived-datatype engine counters. dt.pack_bytes counts payload bytes
  /// gathered or scattered through flattened layouts (charged to the rank
  /// whose thread ran the copy); dt.fastpath_hits counts typed transfers
  /// that moved strided data with no intermediate staging buffer (eager
  /// gather-into-slab, matched direct strided copy, rendezvous
  /// pack-on-the-fly); dt.flatten_runs counts flattened runs walked on
  /// the hot path.
  obs::PvarId dt_pack_bytes, dt_fastpath_hits, dt_flatten_runs;

  /// One-sided (RMA) counters. Always registered, like coll.*: a job
  /// that never creates a window simply reads zero. put/get bytes are
  /// charged to the ORIGIN rank's slot (the thread that drives the
  /// RDMA-emulating transfer); acc_ops counts accumulate + fetch_op
  /// applications at the origin; sync_epochs counts epoch-closing calls
  /// (fence, complete, wait, unlock, unlock_all) per calling rank.
  obs::PvarId rma_put_bytes, rma_get_bytes, rma_acc_ops, rma_sync_epochs;
  /// Virtual time spent inside epoch-closing RMA calls (lock waits and
  /// sync completion), kHistogram.
  obs::PvarId hist_rma_wait;

  /// Per-algorithm collective invocation counts, indexed by CollAlg.
  std::vector<obs::PvarId> coll;

  /// Hier-suite single-copy accounting: payloads copied directly out of
  /// the publishing rank's user buffer (no mailbox bounce), the bytes so
  /// moved, and the virtual time ranks spent waiting on shared flags.
  /// Always registered (like coll.*): a job that never selects the hier
  /// suite simply reads zero.
  obs::PvarId hier_single_copy;        ///< kCounter, unit kNone
  obs::PvarId hier_single_copy_bytes;  ///< kCounter, unit kBytes
  obs::PvarId hier_flag_wait_ns;       ///< kTimer, unit kNanoseconds

  /// Latency distributions (kHistogram pvars, virtual ns): blocking wait
  /// time, eager vs rendezvous send-to-delivery latency, NBC schedule
  /// round latency. hist_slab is measured thread-CPU ns (depot work is
  /// real work, not modelled fabric time).
  obs::PvarId hist_wait, hist_eager, hist_rndv, hist_nbc_round, hist_slab;

  /// Scalasca-style wait-state classifier: late-sender / late-receiver
  /// at the transport match points, wait-at-barrier skew per collective
  /// entry. Registers the waitstate.* pvars.
  obs::WaitState waitstate;

  /// Black-box flight recorder: per-rank rings of recent protocol
  /// events, dumped by Universe::run when a job dies with a transport
  /// timeout or rank failure. Disabled when config.flight_recorder is
  /// false (capacity 0).
  obs::FlightRecorder flight;
};

/// Thrown inside rank threads when another rank failed and the Universe
/// aborted the job; Universe::run treats it as a secondary failure.
class AbortError : public jhpc::Error {
 public:
  AbortError() : Error(jhpc::ErrorCode::kAborted,
                       "minimpi job aborted (another rank failed)") {}
};

/// Thrown inside the thread of a rank that fail-stops (scheduled
/// JHPC_FAULT_KILL death or Universe::kill_rank): unwinds the rank's
/// launch callback. Universe::run swallows it — a planned death is part
/// of the fault scenario, not an error of the job.
class RankKilledError : public jhpc::Error {
 public:
  RankKilledError()
      : Error(jhpc::ErrorCode::kRankFailed,
              "rank fail-stopped by the fault plan") {}
};

/// RAII: marks the current thread as running ULFM recovery internals
/// (shrink/agree). Inside the scope the transport's revoked-communicator
/// checks and the ErrorsAreFatal escalation are suppressed, so recovery
/// can run on exactly the communicators it exists to repair.
class ResilienceScope {
 public:
  ResilienceScope();
  ~ResilienceScope();
  ResilienceScope(const ResilienceScope&) = delete;
  ResilienceScope& operator=(const ResilienceScope&) = delete;
  static bool active();
};

/// Per-rank virtual clock.
///
/// `vclock` is the rank's simulated time: it advances by (a) the real CPU
/// time the rank thread consumes (measured with CLOCK_THREAD_CPUTIME_ID,
/// so parked waits and preemption by other rank threads do not count) and
/// (b) modelled network delays from the fabric. Because each rank's CPU
/// is metered separately, N rank threads on one physical core behave —
/// in virtual time — like N ranks on N cores: tree collectives show their
/// real critical path, bandwidth saturates at the modelled link rate.
/// Only the owning rank thread mutates its clock (receiver-side jumps are
/// applied by the owner when it observes a completion).
struct RankClock {
  std::int64_t vclock = 0;
  std::int64_t last_cpu = 0;
  /// False in deterministic-clock mode (UniverseConfig::
  /// deterministic_clock): real CPU time is not folded in, so the clock
  /// advances only by modelled costs and runs are bit-reproducible.
  bool cpu_passthrough = true;

  /// Fold the CPU consumed since the last sync point into virtual time.
  /// Called at transport-call ENTRY: it charges the user-region work
  /// (application compute, bindings copies, JNI emulation) done since the
  /// previous transport call returned. Must run on the owning thread.
  void advance_cpu() {
    if (!cpu_passthrough) return;
    const std::int64_t cpu = jhpc::thread_cpu_ns();
    vclock += cpu - last_cpu;
    last_cpu = cpu;
  }
  /// Discard CPU consumed since the last sync point WITHOUT charging it.
  /// Called at transport-call EXIT so that lock contention, futex wakeups
  /// and scheduler artifacts of running many rank threads on few cores do
  /// not pollute the virtual clock; the real work a call performs
  /// (payload copies) is charged explicitly via charge()/ChargedSection.
  void resync_cpu() {
    if (cpu_passthrough) last_cpu = jhpc::thread_cpu_ns();
  }
  /// Explicitly add `ns` of modelled or measured work.
  void charge(std::int64_t ns) { vclock += ns; }
  /// Jump forward to `t` if it is in this rank's virtual future.
  void observe(std::int64_t t) {
    if (t > vclock) vclock = t;
  }
};

/// RAII: measures the CPU consumed in a scope (a payload memcpy) and
/// charges it to the clock.
class ChargedSection {
 public:
  explicit ChargedSection(RankClock& clock)
      : clock_(clock),
        t0_(clock.cpu_passthrough ? jhpc::thread_cpu_ns() : 0) {}
  ~ChargedSection() {
    if (clock_.cpu_passthrough) clock_.charge(jhpc::thread_cpu_ns() - t0_);
  }
  ChargedSection(const ChargedSection&) = delete;
  ChargedSection& operator=(const ChargedSection&) = delete;

 private:
  RankClock& clock_;
  std::int64_t t0_;
};

/// Shared state of one non-blocking operation (send or receive).
struct RequestState {
  std::mutex mu;
  /// Parks the owning rank thread, the only waiter; completers notify_one.
  std::condition_variable cv;
  /// The completion word. Written once, under `mu`, with a release store
  /// after every result field below is set, so a waiter may poll it
  /// without the lock (the spin phase of await_completion) and read the
  /// results after an acquire load. Nothing writes the results after it.
  std::atomic<bool> complete{false};
  bool failed = false;
  /// Failed because the reliable transport's delivery timeout expired;
  /// wait/test rethrow this as TransportTimeoutError.
  bool timed_out = false;
  /// Typed classification of the failure (the satellite error taxonomy):
  /// wait/test map it back to the matching exception type.
  jhpc::ErrorCode err_code = jhpc::ErrorCode::kUnknown;
  /// For kRankFailed: the world ranks known dead when the request failed.
  std::vector<int> failed_ranks;
  std::string error;
  /// VIRTUAL time at which the result exists at its destination (fabric
  /// delivery time); the owner's clock jumps to it on wait/test success.
  std::int64_t ready_at_ns = 0;
  Status status;
  /// Clock of the rank that will wait on this request.
  RankClock* owner_clock = nullptr;
  /// Virtual time at which the receive was posted (rendezvous start).
  std::int64_t post_vtime = 0;

  // Matching fields for posted receives.
  bool is_recv = false;
  void* recv_buf = nullptr;
  std::size_t recv_capacity = 0;
  /// Layout of the receive buffer for typed receives (absent = dense
  /// bytes). recv_capacity stays the PAYLOAD capacity (count * size());
  /// a sender that matches this request scatters straight through the
  /// flattened runs.
  std::optional<Datatype> recv_dt;
  int recv_dt_count = 0;
  int match_src = kAnySource;  // comm rank or wildcard
  int match_tag = kAnyTag;
  int context_id = 0;

  /// Abort flag of the owning universe (polled while waiting).
  const std::atomic<bool>* abort = nullptr;

  /// Owning universe: lets wait/test apply the per-communicator error
  /// handler and notice the owner's own scheduled death. Null only in
  /// white-box unit tests that build a bare RequestState.
  UniverseImpl* uni = nullptr;

  /// Observability of the owning universe (null when disabled) and the
  /// owner's world rank, so wait_request can account wait time.
  UniverseObs* obs = nullptr;
  int owner_world = -1;
};

/// RAII trace span over a transport call, stamped with the owning rank's
/// virtual clock. Must be constructed and destroyed on the clock's owner
/// thread; a null `o` makes it a no-op.
class TransportSpan {
 public:
  TransportSpan(UniverseObs* o, int world_rank, const char* name,
                const RankClock& clock)
      : o_(o), clock_(&clock), name_(name), world_(world_rank) {
    if (o_ != nullptr) o_->rec.begin(world_, name_, clock_->vclock);
  }
  ~TransportSpan() {
    if (o_ != nullptr) o_->rec.end(world_, name_, clock_->vclock);
  }
  TransportSpan(const TransportSpan&) = delete;
  TransportSpan& operator=(const TransportSpan&) = delete;

 private:
  UniverseObs* o_;
  const RankClock* clock_;
  const char* name_;
  int world_;
};

/// RAII over one collective invocation: bumps the algorithm's invocation
/// pvar and wraps the call in a trace span named after it
/// ("bcast[binomial]"). No-op when observability is disabled.
class CollSpan {
 public:
  CollSpan(const Comm& c, CollAlg alg) {
    const ObsAccess a = obs_access(c);
    if (a.obs == nullptr) return;
    o_ = a.obs;
    world_ = a.world_rank;
    clock_ = a.clock;
    name_ = coll_alg_trace_name(alg);
    o_->rec.pvars().add(o_->coll[static_cast<std::size_t>(alg)], world_, 1);
    o_->rec.begin(world_, name_, clock_->vclock);
    // Wait-at-barrier attribution: stamp this rank's entry; the last
    // group member to arrive charges everyone else's skew.
    o_->waitstate.coll_entry(a.context_id, c.group().ranks(), c.rank(),
                             clock_->vclock);
  }
  ~CollSpan() {
    if (o_ != nullptr) o_->rec.end(world_, name_, clock_->vclock);
  }
  CollSpan(const CollSpan&) = delete;
  CollSpan& operator=(const CollSpan&) = delete;

 private:
  UniverseObs* o_ = nullptr;
  const RankClock* clock_ = nullptr;
  const char* name_ = nullptr;
  int world_ = -1;
};

/// Mark `rs` complete. Callers may hold the endpoint lock; waiters only
/// ever take the request lock, so endpoint->request is a safe lock order.
void complete_request(RequestState& rs, const Status& st,
                      std::int64_t ready_at_ns);
void fail_request(RequestState& rs, jhpc::ErrorCode code, std::string error);
/// fail_request + the timed_out mark: waiters get TransportTimeoutError.
void fail_request_timeout(RequestState& rs, std::string error);
/// Fail with kRankFailed: `detect_at_ns` is the virtual time at which the
/// owner's heartbeat detector observes the death (waiters jump to it).
void fail_request_rank(RequestState& rs, std::string error,
                       std::vector<int> failed, std::int64_t detect_at_ns);
/// Fail with kCommRevoked; same detection-latency contract.
void fail_request_revoked(RequestState& rs, std::string error,
                          std::int64_t detect_at_ns);

/// Rethrow a recorded failure as its typed exception (the taxonomy's
/// single decode point: timeout/truncation/rank-failure/revocation).
[[noreturn]] void throw_failure(jhpc::ErrorCode code, const std::string& err,
                                std::vector<int> failed);

/// How await_completion ended.
enum class Awaited {
  kSpun,      ///< the completion was seen during the spin phase
  kParked,    ///< seen after parking on the request's condvar
  kTimedOut,  ///< `park_limit` expired first (the request is incomplete)
};

/// The one blocking-wait primitive. Spins on the completion word for a
/// bounded wall-clock budget, yielding the core every iteration, then
/// parks on the condvar for at most `park_limit`. Throws AbortError when
/// the job aborts and RankKilledError when the owner itself is
/// fail-stopped. Does not touch the owner's virtual clock: the spin and
/// park burn host CPU, which callers must keep out of virtual time.
Awaited await_completion(RequestState& rs,
                         std::chrono::milliseconds park_limit =
                             std::chrono::milliseconds::max());

/// Block until `rs` completes; jumps the owner's virtual clock to the
/// delivery time; throws the delivered error or AbortError. Must run on
/// the owning rank thread. Returns the final Status.
Status wait_request(RequestState& rs);

/// Non-blocking completion check with virtual-time semantics: a completed
/// operation whose delivery time is still in the owner's virtual future
/// reports "not yet" (the caller's polling CPU advances the clock until
/// it catches up). Returns true and fills `out` once observable.
bool test_request(RequestState& rs, Status* out);

/// An incoming message parked in the unexpected queue.
struct InMsg {
  int src = 0;       // sender's rank in the communicator
  int tag = 0;
  int context_id = 0;
  int src_world = 0;  // sender's world rank (fabric cost at copy time)
  std::size_t bytes = 0;
  /// Per-(src,dst) message sequence number; keys every fault decision
  /// this message's packets make. Only meaningful when faults are on.
  std::uint64_t seq = 0;
  /// Eager payload (owned copy) in a slab drawn from the Universe's
  /// recycler; empty for rendezvous and zero-byte messages. Receive
  /// completion returns it to the pool; teardown with the message still
  /// parked simply frees it.
  Slab eager;
  /// Virtual delivery time: eager payload arrival, or the rendezvous
  /// header's arrival (what probe sees).
  std::int64_t deliver_at_ns = 0;
  /// Sender's virtual time at the send call (rendezvous transfer start).
  std::int64_t send_vtime = 0;
  /// Rendezvous: the sender's live buffer and its completion request.
  const void* rndv_src = nullptr;
  std::shared_ptr<RequestState> rndv_sender;
  /// Layout of the sender's live buffer for typed rendezvous sends: the
  /// receiver packs on the fly, run by run, at consume time. Eager
  /// payloads are gathered into the slab at send time, so they are
  /// always dense and need no layout here.
  std::optional<Datatype> rndv_dt;
  int rndv_dt_count = 0;

  bool is_rndv() const { return rndv_sender != nullptr; }
};

/// One matching domain of an endpoint: the unexpected and posted queues
/// of the context ids that hash to it, under their own lock. Matching is
/// always within one context id (envelope_matches requires equality), so
/// sharding the mailbox by context keeps MPI's per-communicator
/// non-overtaking order while letting concurrent communicators stop
/// contending on one endpoint-wide mutex.
struct MatchBucket {
  std::mutex mu;
  /// Signaled when a message joins `unexpected` (probe wakes) or on abort.
  std::condition_variable cv;
  /// Blocking probes currently parked on `cv` (guarded by `mu`): lets the
  /// hot enqueue path skip the condvar broadcast when nobody listens.
  int probe_waiters = 0;
  std::deque<InMsg> unexpected;
  std::deque<std::shared_ptr<RequestState>> posted;
};

/// Per-world-rank mailbox, sharded by context id.
struct Endpoint {
  static constexpr std::size_t kBuckets = 8;
  std::array<MatchBucket, kBuckets> buckets;
  MatchBucket& bucket(int context_id) {
    return buckets[static_cast<std::size_t>(context_id) % kBuckets];
  }
};

struct NbcState;

/// One per-(context id, virtual node) shared segment of the hier
/// collective suite: the flag tree node members synchronise on, plus the
/// publication fields the single-copy path reads. Ranks are threads of
/// one process, so "shared segment" is literal shared memory here — the
/// repo's stand-in for an XPMEM/CMA mapping of the sender's buffer.
///
/// Single-writer discipline (what keeps TSan quiet without locks):
///   - slot i's ptr/vtime/local_seq and its arrive/done flags are written
///     only by node member i's thread;
///   - release and pub_ptr/pub_vtime are written only by the node
///     leader's thread.
/// Non-atomic fields are published before a release-store of the paired
/// flag and read after an acquire-load of it; cross-operation reuse is
/// ordered by the end-of-op done handshake (the leader never starts
/// operation seq+1 before every member acknowledged seq).
struct HierSeg {
  struct alignas(64) Slot {
    /// Seq-stamped flags: "my input/publication for op seq is visible"
    /// and "I am finished with op seq's shared state".
    std::atomic<std::uint64_t> arrive{0};
    std::atomic<std::uint64_t> done{0};
    /// This member's published buffer and virtual time, guarded by
    /// arrive. The done handshake carries its own timestamp field:
    /// a reader blocked on `done` for op seq cannot be ordered against
    /// this member's `arrive` re-stamp for seq+1 (the member races
    /// ahead once it has seen release), so arrive and done must never
    /// share a timestamp word.
    const void* ptr = nullptr;
    std::int64_t vtime = 0;
    std::int64_t vtime_done = 0;  ///< guarded by done
    /// Owner-thread-only operation counter; all node members advance in
    /// lockstep because collectives are entered in the same order.
    std::uint64_t local_seq = 0;
  };
  /// Leader -> members: op seq's publication (pub_ptr/pub_vtime) is
  /// ready. pub_ptr points into the publishing rank's live user buffer —
  /// the single-copy source.
  std::atomic<std::uint64_t> release{0};
  const void* pub_ptr = nullptr;
  std::int64_t pub_vtime = 0;
  /// Leader -> a non-leader publisher (e.g. a bcast root that is not
  /// its node's leader): every member's done for op seq has been
  /// collected, so the published buffer is free to reuse. Written only
  /// by the leader; the publisher must not scan the done flags itself —
  /// its reads could not be ordered against the members' next-op
  /// writes. Safe to re-stamp because the leader re-enters this path
  /// only after acquiring that publisher's arrive for the next op.
  std::atomic<std::uint64_t> all_done{0};
  std::int64_t all_done_vtime = 0;
  std::vector<Slot> slots;  ///< sized once at creation; never reallocated

  explicit HierSeg(std::size_t nmembers) : slots(nmembers) {}
};

/// Per-world-rank nonblocking-collective progress state (coll_nbc.cpp).
/// Owner-thread-only: slot w is touched exclusively by rank w's thread,
/// so no lock guards it.
struct NbcRank {
  /// Active schedules in initiation order; a wait or test on any one of
  /// them progresses all of them (MPI's weak-progress contract: the
  /// engine only runs inside MPI calls, but it never starves a sibling).
  std::vector<std::shared_ptr<NbcState>> active;
  /// Next operation sequence number per context id. Collectives must be
  /// entered by every rank of a communicator in the same order, so equal
  /// counters yield the same matching tag on every rank.
  std::unordered_map<int, std::uint32_t> seq;
  /// The engine is driving `active` right now: the waits it runs inside
  /// must not re-enter it.
  bool driving = false;
};

/// The state behind a Universe, shared with Comm/Request implementations.
struct UniverseImpl {
  explicit UniverseImpl(UniverseConfig cfg);

  UniverseConfig config;
  netsim::Fabric fabric;
  std::vector<std::unique_ptr<Endpoint>> endpoints;
  /// Eager payload recycler: senders draw, receive completion returns.
  SlabPool slab;
  /// One virtual clock per world rank (owner-thread mutation only).
  std::vector<RankClock> clocks;
  /// Context ids: 0 is COMM_WORLD; dup/split/create allocate upward.
  std::atomic<int> next_context_id{1};
  std::atomic<bool> abort{false};

  /// Null when observability is disabled (the default): every
  /// instrumentation site in the transport guards on this one pointer.
  std::unique_ptr<UniverseObs> obs;

  /// Nonblocking-collective schedules, one slot per world rank.
  std::vector<NbcRank> nbc;

  // --- Hier collective suite (coll_hier.cpp) ----------------------------
  /// Per-(context id, node) shared segments, created lazily on first use
  /// (the mutex guards only creation; the segments themselves are
  /// lock-free flag trees). unique_ptr keeps segment addresses stable
  /// across map rebalancing.
  struct HierState {
    std::mutex mu;
    std::map<std::pair<int, int>, std::unique_ptr<HierSeg>> segs;
  };
  HierState hier;

  /// Find-or-create the segment for (context_id, node) with `nmembers`
  /// node-resident comm ranks. Every member resolves the same segment.
  HierSeg& hier_segment(int context_id, int node, std::size_t nmembers);

  /// Drop all segments (new job on a reused Universe: flag sequence
  /// numbers restart with the members' local counters).
  void hier_reset();

  // --- One-sided windows (win.cpp) --------------------------------------
  /// Registry of live window states, keyed by (context id, per-comm
  /// creation index). win_create is collective and communicators enter
  /// collectives in one order, so every member of call k resolves the
  /// same key. Values are type-erased (the concrete WinState lives in
  /// detail/win.hpp); the deleter captured at creation keeps destruction
  /// well-typed. `seq` is the per-world-rank, per-context creation
  /// counter (owner-thread only, NbcRank-style).
  struct WinBoard {
    std::mutex mu;
    std::map<std::pair<int, std::uint32_t>, std::shared_ptr<void>> wins;
    std::vector<std::unordered_map<int, std::uint32_t>> seq;
  };
  WinBoard winboard;

  /// Drop all window registrations and reset creation counters (new job
  /// on a reused Universe).
  void win_reset();

  /// Cached fabric.faults_enabled(): the transport's zero-cost-off guard.
  /// When false, every fault/reliability code path below is skipped and
  /// message handling is byte-identical to a fault-free build.
  bool faults_on = false;

  // --- ULFM rank-failure layer ------------------------------------------
  /// One fault-tolerant agreement instance (Comm::agree / Comm::shrink).
  /// Ranks are threads of one process, so agreement runs on a shared
  /// board under FailureState::mu: every participant contributes, the
  /// round completes once each group member has contributed or died, and
  /// the first rank to see completion commits one consistent snapshot.
  /// The modelled network cost (2*ceil(log2 n) hops, the depth of a
  /// reduce+bcast tree) is charged to each caller's virtual clock.
  struct AgreeSlot {
    int flag_and = ~0;           ///< AND over contributed flags
    int new_cid = 0;             ///< shrink: context id, allocated once
    std::set<int> contributed;   ///< world ranks that contributed
    bool committed = false;
    int result_flag = 0;
    std::vector<int> result_dead;  ///< agreed failed set (world, sorted)
  };

  /// Epitaph timestamp for an externally-killed rank whose clock the
  /// detector could not read (clocks are thread-local to their owner);
  /// refined to the real death time if the victim runs again.
  static constexpr std::int64_t kDeathTimeUnknown = -1;

  /// All mutable rank-failure state. The fast guards (`kills_on`,
  /// `dead_count`, `revoked_count`) are the zero-cost-off story: with no
  /// kill plan and no revocation, every transport entry pays exactly one
  /// relaxed atomic load.
  struct FailureState {
    std::atomic<bool> kills_on{false};
    std::atomic<int> dead_count{0};
    std::atomic<int> revoked_count{0};
    /// Per world rank: fail-stopped; its death time; its scheduled death
    /// time (INT64_MAX = never). Arrays sized world_size.
    std::unique_ptr<std::atomic<bool>[]> dead;
    std::unique_ptr<std::atomic<std::int64_t>[]> dead_at;
    std::unique_ptr<std::atomic<std::int64_t>[]> kill_at;

    std::mutex mu;
    /// Agreement-board wakeups (contributions and deaths both re-evaluate
    /// the completion condition).
    std::condition_variable cv;
    std::set<int> revoked;  ///< revoked context ids
    /// Context id -> the communicator's world ranks in comm-rank order;
    /// maps a posted receive's match_src to a world identity when the
    /// reaper decides which requests a death breaks.
    std::unordered_map<int, std::vector<int>> comm_groups;
    /// Context id -> error handler (absent = kErrorsAreFatal).
    std::unordered_map<int, Errhandler> errhandlers;
    /// (context id, per-comm agreement round) -> slot.
    std::map<std::pair<int, std::uint64_t>, AgreeSlot> agree;
    /// (context id, world rank) -> next agreement round for that rank.
    std::map<std::pair<int, int>, std::uint64_t> agree_seq;
  };
  FailureState fail;

  /// Result of one agreement round (Comm::agree / Comm::shrink).
  struct AgreeResult {
    int flag = 0;
    int new_cid = 0;
    std::vector<int> agreed_dead;
  };

  bool kills_on() const {
    return fail.kills_on.load(std::memory_order_relaxed);
  }
  bool rank_dead(int world_rank) const {
    return kills_on() &&
           fail.dead[static_cast<std::size_t>(world_rank)].load(
               std::memory_order_acquire);
  }
  /// True when this rank has fail-stopped (no reaping; safe under locks).
  bool self_dead(int my_world) const { return rank_dead(my_world); }

  /// Transport-entry check on the calling rank's own thread: executes a
  /// scheduled death (kill_at reached in virtual time) or an already
  /// marked one by reaping and throwing RankKilledError. Must be called
  /// with no transport locks held.
  void check_self_alive(int my_world);

  /// Universe::kill_rank: fail-stop `world_rank` now, from any thread.
  void external_kill(int world_rank);

  /// The reaper: mark `world_rank` dead as of `at_vns` and break every
  /// operation the death strands — posted receives matching the dead rank
  /// (or any-source over a group containing it), the dead rank's own
  /// parked requests, rendezvous senders parked toward its endpoint, and
  /// its unmatched rendezvous envelopes (their source buffer unwinds with
  /// the dead thread). Survivors observe the failure no earlier than
  /// at_vns + heartbeat_ns. Idempotent.
  void mark_dead(int world_rank, std::int64_t at_vns);

  void register_comm(int context_id, std::vector<int> world_ranks);
  void set_errhandler(int context_id, Errhandler eh);
  Errhandler errhandler(int context_id);

  /// Comm::revoke: mark the communicator revoked and sweep-fail every
  /// pending operation on it (posted receives, parked rendezvous
  /// senders); in-flight eager payloads on it are dropped. Idempotent;
  /// `my_world` is the initiating rank (pvar + propagation timestamp).
  void revoke_comm(int context_id, int my_world);
  bool comm_revoked(int context_id);

  /// World ranks of `context_id`'s group currently known dead (sorted).
  std::vector<int> dead_in_comm(int context_id);

  /// First dead world rank a receive matching (src, any) could involve,
  /// or -1. `match_src` is a comm rank or kAnySource.
  int dead_peer_for_recv(int context_id, int my_world, int match_src);

  /// dead_peer_for_recv when kills are armed, else -1. The receive paths
  /// check it at entry and again under the bucket lock just before they
  /// post: a mark_dead sweep of the bucket in between would otherwise
  /// strand the posted receive with nobody left to fail it.
  int stranding_peer(int context_id, int my_world, int match_src) {
    return kills_on() ? dead_peer_for_recv(context_id, my_world, match_src)
                      : -1;
  }

  /// Raise a rank-failure/revocation condition on the calling rank:
  /// counts fault.rank.detected, applies the communicator's error handler
  /// (ErrorsAreFatal aborts the job first unless inside ResilienceScope),
  /// then throws the typed exception.
  [[noreturn]] void raise_failure(int my_world, int context_id,
                                  jhpc::ErrorCode code,
                                  const std::string& what,
                                  std::vector<int> failed);

  /// raise_failure for a fail-stopped peer `dead_world`.
  [[noreturn]] void raise_rank_failed(int my_world, int context_id,
                                      int dead_world);

  /// Combined cheap entry check (self-death, revocation, dead peer).
  /// `peer_world` < 0 means "no specific peer".
  void entry_checks(int my_world, int context_id, int peer_world);

  /// One fault-tolerant agreement round on `context_id` (resilience.cpp).
  /// Completes once every group member contributed or died; all
  /// participants read the same committed snapshot. With `alloc_cid` the
  /// slot also allocates one fresh context id (Comm::shrink).
  AgreeResult agree_on(int context_id, int my_world, int flag,
                       bool alloc_cid);

  /// Reset the rank-failure layer for a (re)starting job: arm the
  /// config's kill schedule, clear death/revocation/agreement state.
  void reset_failure_state();

  /// Drop every parked request and unexpected message, returning eager
  /// slabs to the recycler. Run at job start and after join so a run that
  /// ended in failures (timeouts, kills, aborts) cannot leak stale
  /// matches — or dangling buffers — into the next run on this Universe.
  void quiesce();

  /// Per directed (src,dst) world-rank pair: latest data delivery time
  /// handed out so far. The reliable transport floors every delivery to
  /// it, so retransmitted messages cannot be overtaken in virtual time by
  /// later sends from the same source (per-(src,comm) FIFO holds under
  /// faults). Allocated only when faults_on; CAS-max updated (eager
  /// deliveries raise it from the sender's thread, late-matched
  /// rendezvous from the receiver's).
  std::unique_ptr<std::atomic<std::int64_t>[]> fifo_floor;

  /// Floor `t` to the pair's FIFO floor and raise the floor to the
  /// result. Returns the delivery time to use.
  std::int64_t fifo_raise(int src_world, int dst_world, std::int64_t t);

  /// Zero the FIFO floors (new job on a reused Universe).
  void reset_fault_state();

  /// Result of one reliable (ack'd, retransmitting) payload transfer.
  struct ReliableTx {
    /// Receiver-side arrival of the first successful data attempt.
    std::int64_t deliver_at_ns = 0;
    /// When the sender's reliability engine received the ack (rendezvous
    /// sender completion time).
    std::int64_t acked_at_ns = 0;
  };

  /// Drive one sequence-numbered payload through the fault plan:
  /// data attempt -> ack attempt, retransmitting with exponential backoff
  /// (FaultPlan::rto_ns, doubling up to rto_max_ns) on either loss, and
  /// counting drops/retransmits/duplicates as pvars. Duplicate data
  /// arrivals (lost ack) are suppressed: the payload is delivered exactly
  /// once, at the FIRST successful attempt's arrival time. All timestamps
  /// are virtual; nothing blocks. Throws TransportTimeoutError once the
  /// next retry would exceed start_ns + FaultPlan::delivery_timeout_ns.
  /// `trace_rank` is the rank whose thread runs this call (its trace ring
  /// records the retransmit spans). Requires faults_on.
  ReliableTx reliable_transmit(int src_world, int dst_world,
                               std::size_t bytes, std::uint64_t seq,
                               std::int64_t start_ns, int trace_rank,
                               const char* what);

  /// reliable_transmit with a receiver-side arrival hook: `on_arrival`
  /// runs for EVERY data attempt that survives the fault plan — the
  /// first delivery and every duplicate a lost ack provokes — with that
  /// attempt's arrival time. This is the RDMA-emulating RMA path's entry
  /// point: the hook applies the one-sided operation to the exposed
  /// window, and its seq-dedup is what keeps retransmitted puts and
  /// accumulates idempotent (the two-sided path gets the same effect
  /// from the unexpected queue's sequence suppression). A null hook
  /// reduces this to reliable_transmit.
  ReliableTx reliable_transmit_each(
      int src_world, int dst_world, std::size_t bytes, std::uint64_t seq,
      std::int64_t start_ns, int trace_rank, const char* what,
      const std::function<void(std::int64_t)>& on_arrival);

  /// Same retry discipline for one control message (RTS/CTS): returns its
  /// arrival time; counts fault.rndv_retries; throws TransportTimeoutError
  /// on budget exhaustion. Requires faults_on.
  std::int64_t reliable_control(int src_world, int dst_world,
                                std::uint64_t seq, netsim::FaultSalt salt,
                                std::int64_t start_ns, int trace_rank,
                                const char* what);

  /// Set the abort flag and wake every parked thread.
  void abort_all();
  void throw_if_aborted() const;

  /// Sender-side delivery. Returns the sender's request when the message
  /// went rendezvous-unmatched (caller waits or wraps it in a Request);
  /// nullptr when the send completed locally. `sdt`/`sdt_count` describe
  /// a noncontiguous source buffer (null = dense bytes): eager sends
  /// gather the flattened runs directly into the transport slab (one
  /// copy), matched sends scatter straight into the receiver's layout,
  /// and rendezvous parks the layout alongside the live buffer.
  /// `bytes` is always the PAYLOAD size (sdt_count * sdt->size()).
  std::shared_ptr<RequestState> deliver(int src_world, int dst_world,
                                        int context_id, int src_comm_rank,
                                        int tag, const void* buf,
                                        std::size_t bytes,
                                        const Datatype* sdt = nullptr,
                                        int sdt_count = 0);

  /// Receiver-side post. Returns the receive request (matched-and-complete
  /// or parked in the posted queue). `rdt`/`rdt_count` describe a
  /// noncontiguous receive buffer; `capacity` stays the payload capacity.
  std::shared_ptr<RequestState> post_recv(int my_world, int context_id,
                                          int src, int tag, void* buf,
                                          std::size_t capacity,
                                          const Datatype* rdt = nullptr,
                                          int rdt_count = 0);

  /// Blocking receive. With observability off this takes the
  /// matched-receive fast path: when the message is already pending it is
  /// consumed in place — same single copy, same virtual-time result —
  /// without allocating a RequestState or round-tripping its lock and
  /// condvar. Instrumented jobs (and unmatched receives) use
  /// post_recv + wait_request unchanged, so the post/wait trace spans and
  /// wait_count/wait_ns pvars stay part of the observable contract.
  /// Throws like wait_request.
  Status blocking_recv(int my_world, int context_id, int src, int tag,
                       void* buf, std::size_t capacity,
                       const Datatype* rdt = nullptr, int rdt_count = 0);

  /// Withdraw a posted receive whose owner is unwinding without it having
  /// completed (a rank failure surfaced from a sibling operation, e.g. the
  /// send half of a sendrecv). The receive buffer is about to go out of
  /// scope, so the request must stop being matchable: a sender that found
  /// it in the posted queue would memcpy into freed memory. Taking the
  /// bucket lock here also fences a concurrent deliver() that matched it
  /// first — its copy runs under the same lock, so once cancel returns
  /// the buffer is quiescent and safe to destroy.
  void cancel_recv(const RequestState& rs);

  /// Outcome of consuming one matched unexpected message in place.
  struct Consumed {
    std::int64_t arrival_ns = 0;  ///< receive completion (virtual time)
    bool ok = true;
    bool timed_out = false;  ///< failure was a transport timeout
    /// Typed failure classification (kTruncated, kTransportTimeout).
    jhpc::ErrorCode code = jhpc::ErrorCode::kUnknown;
    std::string error;  ///< set when !ok
  };

  /// Copy a matched unexpected message into the receive buffer and settle
  /// every side effect of the match: the single payload copy (charged),
  /// rendezvous CTS/payload scheduling and sender completion, eager slab
  /// release back to the recycler, truncation handling, and the
  /// receive-side pvars. Caller holds the bucket lock and erased the
  /// message from the queue; both post_recv and the blocking_recv fast
  /// path delegate here so their semantics cannot drift.
  Consumed consume_matched(InMsg msg, int my_world, void* buf,
                           std::size_t capacity, RankClock& rclock,
                           const Datatype* rdt = nullptr,
                           int rdt_count = 0);

  /// Probe my endpoint for a matching pending message. Blocking variant
  /// waits; both fill `out` and return true on a match.
  bool probe_match(int my_world, int context_id, int src, int tag,
                   bool blocking, Status* out);
};

/// True when the message envelope satisfies the receive's match spec.
bool envelope_matches(int msg_cid, int msg_src, int msg_tag, int want_cid,
                      int want_src, int want_tag);

}  // namespace jhpc::minimpi::detail
