#include "jhpc/minimpi/comm.hpp"

#include <algorithm>
#include <vector>

#include "detail/coll.hpp"
#include "detail/coll_nbc.hpp"
#include "detail/transport.hpp"
#include "jhpc/support/clock.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::minimpi {

namespace {

void check_valid(const detail::UniverseImpl* impl) {
  JHPC_REQUIRE(impl != nullptr, "operation on an invalid communicator");
}

void check_peer(int peer, int size, const char* what) {
  JHPC_REQUIRE(peer >= 0 && peer < size,
               std::string(what) + ": peer rank out of range");
}

void check_tag_send(int tag) {
  // Tags at and above kTagBase (2^28) are reserved for the collective
  // algorithms; letting user traffic in there could cross-match with an
  // in-flight collective on the same communicator. Internal callers hold
  // an InternalTagScope.
  JHPC_REQUIRE(tag >= 0, "send tag must be non-negative");
  JHPC_REQUIRE(tag <= kMaxUserTag || detail::internal_tags_allowed(),
               "send tag must be <= kMaxUserTag (2^28 - 1): tags above it "
               "are reserved for collectives");
}

void check_tag_recv(int tag) {
  JHPC_REQUIRE(tag >= 0 || tag == kAnyTag,
               "recv tag must be non-negative or kAnyTag");
  JHPC_REQUIRE(tag <= kMaxUserTag || detail::internal_tags_allowed(),
               "recv tag must be <= kMaxUserTag (2^28 - 1): tags above it "
               "are reserved for collectives");
}

thread_local int internal_tag_depth = 0;
}  // namespace

namespace detail {

InternalTagScope::InternalTagScope() { ++internal_tag_depth; }
InternalTagScope::~InternalTagScope() { --internal_tag_depth; }

bool internal_tags_allowed() { return internal_tag_depth > 0; }

}  // namespace detail

namespace detail {

ObsAccess obs_access(const Comm& c) {
  check_valid(c.impl_);
  const int me = c.my_world();
  return ObsAccess{c.impl_->obs.get(), me,
                   &c.impl_->clocks[static_cast<std::size_t>(me)],
                   c.context_id_, c.impl_};
}

}  // namespace detail

obs::PvarRegistry* Comm::pvars() const {
  check_valid(impl_);
  detail::UniverseObs* o = impl_->obs.get();
  return o != nullptr ? &o->rec.pvars() : nullptr;
}

obs::Recorder* Comm::recorder() const {
  check_valid(impl_);
  detail::UniverseObs* o = impl_->obs.get();
  return o != nullptr ? &o->rec : nullptr;
}

CollectiveSuite Comm::suite() const {
  check_valid(impl_);
  return impl_->config.suite;
}

const UniverseConfig& Comm::universe_config() const {
  check_valid(impl_);
  return impl_->config;
}

Comm::Comm(detail::UniverseImpl* impl, Group group, int my_rank,
           int context_id)
    : impl_(impl),
      group_(std::move(group)),
      my_rank_(my_rank),
      context_id_(context_id) {
  // Every rank registers the same mapping; the registry keeps the first.
  impl_->register_comm(context_id_, group_.ranks());
}

// --- Fault tolerance (ULFM) -------------------------------------------------
// revoke/shrink/agree live in resilience.cpp with the agreement protocol.

void Comm::set_errhandler(Errhandler eh) const {
  check_valid(impl_);
  impl_->set_errhandler(context_id_, eh);
}

Errhandler Comm::errhandler() const {
  check_valid(impl_);
  return impl_->errhandler(context_id_);
}

std::vector<int> Comm::failed_ranks() const {
  check_valid(impl_);
  return impl_->dead_in_comm(context_id_);
}

// --- Point-to-point ---------------------------------------------------------

void Comm::send(const void* buf, std::size_t bytes, int dst, int tag) const {
  check_valid(impl_);
  check_peer(dst, size(), "send");
  check_tag_send(tag);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "send",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  auto pending = impl_->deliver(me, world_of(dst), context_id_, my_rank_,
                                tag, buf, bytes);
  if (pending) detail::wait_request(*pending);
}

void Comm::recv(void* buf, std::size_t capacity, int src, int tag,
                Status* status) const {
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "recv");
  check_tag_recv(tag);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "recv",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  const Status st =
      impl_->blocking_recv(me, context_id_, src, tag, buf, capacity);
  if (status != nullptr) *status = st;
}

Request Comm::isend(const void* buf, std::size_t bytes, int dst,
                    int tag) const {
  check_valid(impl_);
  check_peer(dst, size(), "isend");
  check_tag_send(tag);
  auto pending = impl_->deliver(my_world(), world_of(dst), context_id_,
                                my_rank_, tag, buf, bytes);
  if (!pending) return Request{};  // completed locally: null request
  return Request{std::move(pending)};
}

Request Comm::irecv(void* buf, std::size_t capacity, int src,
                    int tag) const {
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "irecv");
  check_tag_recv(tag);
  return Request{
      impl_->post_recv(my_world(), context_id_, src, tag, buf, capacity)};
}

void Comm::sendrecv(const void* send_buf, std::size_t send_bytes, int dst,
                    int send_tag, void* recv_buf, std::size_t recv_capacity,
                    int src, int recv_tag, Status* status) const {
  // Post the receive first, then run the (possibly blocking) send: the
  // mirror-image pattern cannot deadlock because every party's receive is
  // visible before anyone blocks in a rendezvous send.
  check_valid(impl_);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "sendrecv",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  Request r = irecv(recv_buf, recv_capacity, src, recv_tag);
  try {
    send(send_buf, send_bytes, dst, send_tag);
    r.wait(status);
  } catch (...) {
    // The send half surfaced a failure (dead peer, revoked comm) with the
    // receive still posted: recv_buf unwinds with the caller, so the
    // request must stop being matchable first (see cancel_recv).
    if (r.state_ != nullptr) impl_->cancel_recv(*r.state_);
    throw;
  }
}

// --- Typed point-to-point ---------------------------------------------------
// Dense layouts route to the byte path unchanged; strided layouts hand
// the datatype to the transport, whose copy sites gather/scatter through
// the flattened runs (one copy end to end, no staging buffer).

void Comm::send(const void* buf, int count, const Datatype& type, int dst,
                int tag) const {
  const std::size_t bytes = detail::typed_bytes(count, type, "send");
  if (type.contiguous_layout()) {
    send(buf, bytes, dst, tag);
    return;
  }
  check_valid(impl_);
  check_peer(dst, size(), "send");
  check_tag_send(tag);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "send",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  auto pending = impl_->deliver(me, world_of(dst), context_id_, my_rank_,
                                tag, buf, bytes, &type, count);
  if (pending) detail::wait_request(*pending);
}

void Comm::recv(void* buf, int count, const Datatype& type, int src, int tag,
                Status* status) const {
  const std::size_t bytes = detail::typed_bytes(count, type, "recv");
  if (type.contiguous_layout()) {
    recv(buf, bytes, src, tag, status);
    return;
  }
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "recv");
  check_tag_recv(tag);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "recv",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  const Status st = impl_->blocking_recv(me, context_id_, src, tag, buf,
                                         bytes, &type, count);
  if (status != nullptr) *status = st;
}

Request Comm::isend(const void* buf, int count, const Datatype& type,
                    int dst, int tag) const {
  const std::size_t bytes = detail::typed_bytes(count, type, "isend");
  if (type.contiguous_layout()) return isend(buf, bytes, dst, tag);
  check_valid(impl_);
  check_peer(dst, size(), "isend");
  check_tag_send(tag);
  auto pending = impl_->deliver(my_world(), world_of(dst), context_id_,
                                my_rank_, tag, buf, bytes, &type, count);
  if (!pending) return Request{};  // completed locally: null request
  return Request{std::move(pending)};
}

Request Comm::irecv(void* buf, int count, const Datatype& type, int src,
                    int tag) const {
  const std::size_t bytes = detail::typed_bytes(count, type, "irecv");
  if (type.contiguous_layout()) return irecv(buf, bytes, src, tag);
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "irecv");
  check_tag_recv(tag);
  return Request{impl_->post_recv(my_world(), context_id_, src, tag, buf,
                                  bytes, &type, count)};
}

void Comm::sendrecv(const void* send_buf, int send_count,
                    const Datatype& send_type, int dst, int send_tag,
                    void* recv_buf, int recv_count,
                    const Datatype& recv_type, int src, int recv_tag,
                    Status* status) const {
  // Same shape as the byte sendrecv: post the receive first so the
  // mirror-image pattern cannot deadlock in a rendezvous send.
  check_valid(impl_);
  const int me = my_world();
  detail::TransportSpan span(impl_->obs.get(), me, "sendrecv",
                             impl_->clocks[static_cast<std::size_t>(me)]);
  Request r = irecv(recv_buf, recv_count, recv_type, src, recv_tag);
  try {
    send(send_buf, send_count, send_type, dst, send_tag);
    r.wait(status);
  } catch (...) {
    if (r.state_ != nullptr) impl_->cancel_recv(*r.state_);
    throw;
  }
}

Prequest Comm::send_init(const void* buf, std::size_t bytes, int dst,
                         int tag) const {
  check_valid(impl_);
  check_peer(dst, size(), "send_init");
  check_tag_send(tag);
  return Prequest(*this, Prequest::Kind::kSend, const_cast<void*>(buf),
                  bytes, dst, tag);
}

Prequest Comm::recv_init(void* buf, std::size_t capacity, int src,
                         int tag) const {
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "recv_init");
  check_tag_recv(tag);
  return Prequest(*this, Prequest::Kind::kRecv, buf, capacity, src, tag);
}

void Prequest::start() {
  JHPC_REQUIRE(valid(), "start() on an invalid persistent request");
  JHPC_REQUIRE(!active(), "start() while the previous instance is active");
  current_ = kind_ == Kind::kSend
                 ? comm_.isend(buf_, bytes_, peer_, tag_)
                 : comm_.irecv(buf_, bytes_, peer_, tag_);
  active_ = true;
}

void Prequest::wait(Status* status) {
  // A persistent send may have completed locally at start(), in which
  // case current_ is the null request and wait is a no-op. A wait that
  // throws has completed the instance with an error.
  active_ = false;
  current_.wait(status);
}

bool Prequest::test(Status* status) {
  active_ = false;  // as with wait, a test that throws ends the instance
  if (current_.test(status)) return true;
  active_ = true;
  return false;
}

void Prequest::start_all(std::span<Prequest> requests) {
  for (Prequest& r : requests) r.start();
}

Status Comm::probe(int src, int tag) const {
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "probe");
  check_tag_recv(tag);
  Status st;
  impl_->probe_match(my_world(), context_id_, src, tag, /*blocking=*/true,
                     &st);
  return st;
}

bool Comm::iprobe(int src, int tag, Status* status) const {
  check_valid(impl_);
  if (src != kAnySource) check_peer(src, size(), "iprobe");
  check_tag_recv(tag);
  return impl_->probe_match(my_world(), context_id_, src, tag,
                            /*blocking=*/false, status);
}

// --- Collectives ----------------------------------------------------------------
// Every collective runs in the schedule engine (coll_nbc.cpp), which
// picks the suite's algorithm; the hier suite keeps its two-level
// algorithms for barrier/bcast/reduce/allreduce/gather.

using detail::CollArgs;
using detail::NbcOp;

void Comm::barrier() const {
  detail::coll_run(*this, {.what = NbcOp::kBarrier});
}

void Comm::bcast(void* buf, std::size_t bytes, int root) const {
  detail::coll_run(*this, {.what = NbcOp::kBcast, .in = buf, .out = buf,
                           .size = bytes, .root = root});
}

void Comm::reduce(const void* send_buf, void* recv_buf, std::size_t count,
                  BasicKind kind, ReduceOp op, int root) const {
  detail::coll_run(*this, {.what = NbcOp::kReduce, .in = send_buf,
                           .out = recv_buf, .size = count, .kind = kind,
                           .op = op, .root = root});
}

void Comm::allreduce(const void* send_buf, void* recv_buf, std::size_t count,
                     BasicKind kind, ReduceOp op) const {
  detail::coll_run(*this, {.what = NbcOp::kAllreduce, .in = send_buf,
                           .out = recv_buf, .size = count, .kind = kind,
                           .op = op});
}

void Comm::reduce_scatter_block(const void* send_buf, void* recv_buf,
                                std::size_t count_per_rank, BasicKind kind,
                                ReduceOp op) const {
  detail::coll_run(*this, {.what = NbcOp::kReduceScatterBlock,
                           .in = send_buf, .out = recv_buf,
                           .size = count_per_rank, .kind = kind, .op = op});
}

void Comm::scan(const void* send_buf, void* recv_buf, std::size_t count,
                BasicKind kind, ReduceOp op) const {
  detail::coll_run(*this, {.what = NbcOp::kScan, .in = send_buf,
                           .out = recv_buf, .size = count, .kind = kind,
                           .op = op});
}

void Comm::gather(const void* send_buf, std::size_t bytes_per_rank,
                  void* recv_buf, int root) const {
  detail::coll_run(*this, {.what = NbcOp::kGather, .in = send_buf,
                           .out = recv_buf, .size = bytes_per_rank,
                           .root = root});
}

void Comm::scatter(const void* send_buf, std::size_t bytes_per_rank,
                   void* recv_buf, int root) const {
  detail::coll_run(*this, {.what = NbcOp::kScatter, .in = send_buf,
                           .out = recv_buf, .size = bytes_per_rank,
                           .root = root});
}

void Comm::allgather(const void* send_buf, std::size_t bytes_per_rank,
                     void* recv_buf) const {
  detail::coll_run(*this, {.what = NbcOp::kAllgather, .in = send_buf,
                           .out = recv_buf, .size = bytes_per_rank});
}

void Comm::alltoall(const void* send_buf, std::size_t bytes_per_pair,
                    void* recv_buf) const {
  detail::coll_run(*this, {.what = NbcOp::kAlltoall, .in = send_buf,
                           .out = recv_buf, .size = bytes_per_pair});
}

void Comm::bcast(void* buf, int count, const Datatype& type,
                 int root) const {
  detail::coll_run_typed(
      *this, {.what = NbcOp::kBcast, .in = buf, .out = buf, .root = root},
      count, type);
}

void Comm::reduce(const void* send_buf, void* recv_buf, int count,
                  const Datatype& type, ReduceOp op, int root) const {
  detail::coll_run_typed(*this,
                         {.what = NbcOp::kReduce, .in = send_buf,
                          .out = recv_buf, .op = op, .root = root},
                         count, type);
}

void Comm::allreduce(const void* send_buf, void* recv_buf, int count,
                     const Datatype& type, ReduceOp op) const {
  detail::coll_run_typed(*this,
                         {.what = NbcOp::kAllreduce, .in = send_buf,
                          .out = recv_buf, .op = op},
                         count, type);
}

void Comm::gather(const void* send_buf, int count, const Datatype& type,
                  void* recv_buf, int root) const {
  detail::coll_run_typed(*this,
                         {.what = NbcOp::kGather, .in = send_buf,
                          .out = recv_buf, .root = root},
                         count, type);
}

void Comm::scatter(const void* send_buf, int count, const Datatype& type,
                   void* recv_buf, int root) const {
  detail::coll_run_typed(*this,
                         {.what = NbcOp::kScatter, .in = send_buf,
                          .out = recv_buf, .root = root},
                         count, type);
}

void Comm::allgather(const void* send_buf, int count, const Datatype& type,
                     void* recv_buf) const {
  detail::coll_run_typed(
      *this, {.what = NbcOp::kAllgather, .in = send_buf, .out = recv_buf},
      count, type);
}

void Comm::alltoall(const void* send_buf, int count, const Datatype& type,
                    void* recv_buf) const {
  detail::coll_run_typed(
      *this, {.what = NbcOp::kAlltoall, .in = send_buf, .out = recv_buf},
      count, type);
}

void Comm::gatherv(const void* send_buf, std::size_t send_bytes,
                   void* recv_buf, std::span<const std::size_t> counts,
                   std::span<const std::size_t> displs, int root) const {
  detail::coll_run(*this, {.what = NbcOp::kGatherv, .in = send_buf,
                           .out = recv_buf, .size = send_bytes, .root = root,
                           .counts = counts, .displs = displs});
}

void Comm::scatterv(const void* send_buf,
                    std::span<const std::size_t> counts,
                    std::span<const std::size_t> displs, void* recv_buf,
                    std::size_t recv_bytes, int root) const {
  detail::coll_run(*this, {.what = NbcOp::kScatterv, .in = send_buf,
                           .out = recv_buf, .size = recv_bytes, .root = root,
                           .counts = counts, .displs = displs});
}

void Comm::allgatherv(const void* send_buf, std::size_t send_bytes,
                      void* recv_buf, std::span<const std::size_t> counts,
                      std::span<const std::size_t> displs) const {
  detail::coll_run(*this, {.what = NbcOp::kAllgatherv, .in = send_buf,
                           .out = recv_buf, .size = send_bytes,
                           .counts = counts, .displs = displs});
}

void Comm::alltoallv(const void* send_buf,
                     std::span<const std::size_t> send_counts,
                     std::span<const std::size_t> send_displs,
                     void* recv_buf,
                     std::span<const std::size_t> recv_counts,
                     std::span<const std::size_t> recv_displs) const {
  detail::coll_run(*this, {.what = NbcOp::kAlltoallv, .in = send_buf,
                           .out = recv_buf, .counts = recv_counts,
                           .displs = recv_displs, .scounts = send_counts,
                           .sdispls = send_displs});
}

// --- Communicator management ---------------------------------------------------

Comm Comm::dup() const {
  check_valid(impl_);
  // Rank 0 allocates a fresh context id and broadcasts it over *this*
  // communicator (safe: dup is collective).
  int new_cid = 0;
  if (my_rank_ == 0)
    new_cid = impl_->next_context_id.fetch_add(1, std::memory_order_relaxed);
  bcast_cid(&new_cid);
  // New communicators inherit the parent's error handler (MPI semantics).
  impl_->set_errhandler(new_cid, impl_->errhandler(context_id_));
  return Comm(impl_, group_, my_rank_, new_cid);
}

Comm Comm::split(int color, int key) const {
  check_valid(impl_);
  const int size = this->size();

  // Gather (color, key) from everyone.
  struct Entry {
    int color;
    int key;
    int rank;
  };
  std::vector<Entry> entries(static_cast<std::size_t>(size));
  const Entry mine{color, key, my_rank_};
  allgather(&mine, sizeof(Entry), entries.data());

  // Allocate one context id per distinct non-negative color, from rank 0,
  // deterministically (colors in ascending order).
  std::vector<int> colors;
  for (const Entry& e : entries)
    if (e.color >= 0) colors.push_back(e.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());

  int base_cid = 0;
  if (my_rank_ == 0 && !colors.empty()) {
    base_cid = impl_->next_context_id.fetch_add(
        static_cast<int>(colors.size()), std::memory_order_relaxed);
  }
  bcast_cid(&base_cid);

  if (color < 0) return Comm{};  // MPI_UNDEFINED

  // My color group, ordered by (key, old rank).
  std::vector<Entry> members;
  for (const Entry& e : entries)
    if (e.color == color) members.push_back(e);
  std::stable_sort(members.begin(), members.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.key != b.key ? a.key < b.key : a.rank < b.rank;
                   });

  std::vector<int> world_ranks;
  world_ranks.reserve(members.size());
  int my_new_rank = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    world_ranks.push_back(group_.world_rank(members[i].rank));
    if (members[i].rank == my_rank_) my_new_rank = static_cast<int>(i);
  }
  const auto color_it = std::find(colors.begin(), colors.end(), color);
  const int cid =
      base_cid + static_cast<int>(color_it - colors.begin());
  impl_->set_errhandler(cid, impl_->errhandler(context_id_));
  return Comm(impl_, Group(std::move(world_ranks)), my_new_rank, cid);
}

Comm Comm::create(const Group& subgroup) const {
  check_valid(impl_);
  // Agree on a fresh context id over the parent.
  int new_cid = 0;
  if (my_rank_ == 0)
    new_cid = impl_->next_context_id.fetch_add(1, std::memory_order_relaxed);
  bcast_cid(&new_cid);

  const int my_pos = subgroup.rank_of(my_world());
  if (my_pos < 0) return Comm{};
  impl_->set_errhandler(new_cid, impl_->errhandler(context_id_));
  return Comm(impl_, subgroup, my_pos, new_cid);
}

double Comm::wtime() {
  return static_cast<double>(now_ns()) / 1e9;
}

std::int64_t Comm::vtime_ns() const {
  check_valid(impl_);
  detail::RankClock& clock =
      impl_->clocks[static_cast<std::size_t>(my_world())];
  clock.advance_cpu();
  return clock.vclock;
}

// Binomial broadcast of one int from rank 0 on the management tag; used by
// the context-id agreement above (cannot reuse bcast(): the suite may be
// "basic" but the agreement must work before the new comm exists, and it
// must not consume user-visible collective semantics).
void Comm::bcast_cid(int* value) const {
  detail::coll_run_team(*this, detail::CollAlg::kBcastBinomial, {},
                        detail::kTagCommMgmt,
                        {.what = NbcOp::kBcast, .in = value, .out = value,
                         .size = sizeof(int)});
}

}  // namespace jhpc::minimpi
