// ByteBuffer paths and communicator management of the binding core. This
// is the paper's Figure 4 pipeline: reference in, one JNI crossing,
// GetDirectBufferAddress, native MPI call on the raw pointer. Both
// profiles share it; Open MPI-J adds a handle check on send/recv (see
// EnvCore::marshalled_crossing).
#include "jhpc/mv2j/comm.hpp"

#include "checks.hpp"
#include "jhpc/minijvm/jni.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::mv2j {

using detail::basic_only;
using detail::payload_bytes;

namespace {
// Memory span `count` elements of `type` occupy in a buffer: blocks laid
// out extent() apart. The capacity check must cover this for derived
// types — size() undercounts the stride gaps. Layouts reaching below the
// buffer start (negative lower bound) cannot be addressed through a
// ByteBuffer handed over by its base pointer.
std::size_t span_bytes(int count, const Datatype& type, const char* what) {
  JHPC_REQUIRE(count >= 0, "negative element count");
  if (type.isBasic()) return payload_bytes(count, type);
  JHPC_REQUIRE(type.native().true_lb() >= 0,
               std::string(what) +
                   ": datatypes with a negative lower bound are not "
                   "addressable through a ByteBuffer");
  return static_cast<std::size_t>(count) * type.extent();
}
}  // namespace

std::byte* Comm::buffer_address(const ByteBuffer& buf, std::size_t bytes,
                                const char* what) const {
  minijvm::JniEnv& jni = env_->jvm_->jni();
  void* p = jni.get_direct_buffer_address(buf);
  if (p == nullptr) {
    throw UnsupportedOperationError(
        std::string(what) +
        ": the bindings require a direct ByteBuffer (heap buffers have no "
        "stable native address)");
  }
  JHPC_REQUIRE(bytes <= jni.get_direct_buffer_capacity(buf),
               std::string(what) + ": count exceeds buffer capacity");
  return static_cast<std::byte*>(p);
}

// --- Point-to-point: ByteBuffer ------------------------------------------------

void Comm::send(const ByteBuffer& buf, int count, const Datatype& type,
                int dest, int tag) const {
  JHPC_REQUIRE(valid(), "send on invalid communicator");
  const std::size_t span = span_bytes(count, type, "send");
  env_->marshalled_crossing();
  const std::byte* p = buffer_address(buf, span, "send");
  if (type.isBasic()) {
    native_.send(p, payload_bytes(count, type), dest, tag);
  } else {
    native_.send(p, count, type.native(), dest, tag);
  }
}

Status Comm::recv(ByteBuffer& buf, int count, const Datatype& type,
                  int source, int tag) const {
  JHPC_REQUIRE(valid(), "recv on invalid communicator");
  const std::size_t span = span_bytes(count, type, "recv");
  env_->marshalled_crossing();
  std::byte* p = buffer_address(buf, span, "recv");
  minimpi::Status st;
  if (type.isBasic()) {
    native_.recv(p, payload_bytes(count, type), source, tag, &st);
  } else {
    native_.recv(p, count, type.native(), source, tag, &st);
  }
  return Status(st);
}

Request Comm::iSend(const ByteBuffer& buf, int count, const Datatype& type,
                    int dest, int tag) const {
  JHPC_REQUIRE(valid(), "iSend on invalid communicator");
  const std::size_t span = span_bytes(count, type, "iSend");
  env_->jvm_->jni().crossing();
  const std::byte* p = buffer_address(buf, span, "iSend");
  if (type.isBasic()) {
    return Request(native_.isend(p, payload_bytes(count, type), dest, tag),
                   nullptr);
  }
  return Request(native_.isend(p, count, type.native(), dest, tag), nullptr);
}

Request Comm::iRecv(ByteBuffer& buf, int count, const Datatype& type,
                    int source, int tag) const {
  JHPC_REQUIRE(valid(), "iRecv on invalid communicator");
  const std::size_t span = span_bytes(count, type, "iRecv");
  env_->jvm_->jni().crossing();
  std::byte* p = buffer_address(buf, span, "iRecv");
  if (type.isBasic()) {
    return Request(native_.irecv(p, payload_bytes(count, type), source, tag),
                   nullptr);
  }
  return Request(native_.irecv(p, count, type.native(), source, tag),
                 nullptr);
}

Status Comm::sendRecv(const ByteBuffer& sendbuf, int sendcount,
                      const Datatype& sendtype, int dest, int sendtag,
                      ByteBuffer& recvbuf, int recvcount,
                      const Datatype& recvtype, int source,
                      int recvtag) const {
  JHPC_REQUIRE(valid(), "sendRecv on invalid communicator");
  const std::size_t sspan = span_bytes(sendcount, sendtype, "sendRecv");
  const std::size_t rspan = span_bytes(recvcount, recvtype, "sendRecv");
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, sspan, "sendRecv");
  std::byte* rp = buffer_address(recvbuf, rspan, "sendRecv");
  minimpi::Status st;
  if (sendtype.isBasic() && recvtype.isBasic()) {
    native_.sendrecv(sp, payload_bytes(sendcount, sendtype), dest, sendtag,
                     rp, payload_bytes(recvcount, recvtype), source, recvtag,
                     &st);
  } else {
    native_.sendrecv(sp, sendcount, sendtype.native(), dest, sendtag, rp,
                     recvcount, recvtype.native(), source, recvtag, &st);
  }
  return Status(st);
}

Status Comm::probe(int source, int tag) const {
  JHPC_REQUIRE(valid(), "probe on invalid communicator");
  env_->jvm_->jni().crossing();
  return Status(native_.probe(source, tag));
}

bool Comm::iProbe(int source, int tag, Status* status) const {
  JHPC_REQUIRE(valid(), "iProbe on invalid communicator");
  env_->jvm_->jni().crossing();
  minimpi::Status st;
  if (!native_.iprobe(source, tag, &st)) return false;
  if (status != nullptr) *status = Status(st);
  return true;
}

// --- Blocking collectives: ByteBuffer ------------------------------------------

void Comm::barrier() const {
  JHPC_REQUIRE(valid(), "barrier on invalid communicator");
  env_->jvm_->jni().crossing();
  native_.barrier();
}

void Comm::bcast(ByteBuffer& buf, int count, const Datatype& type,
                 int root) const {
  JHPC_REQUIRE(valid(), "bcast on invalid communicator");
  const std::size_t span = span_bytes(count, type, "bcast");
  env_->jvm_->jni().crossing();
  std::byte* p = buffer_address(buf, span, "bcast");
  if (type.isBasic()) {
    native_.bcast(p, payload_bytes(count, type), root);
  } else {
    native_.bcast(p, count, type.native(), root);
  }
}

void Comm::reduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf, int count,
                  const Datatype& type, const Op& op, int root) const {
  JHPC_REQUIRE(valid(), "reduce on invalid communicator");
  const std::size_t span = span_bytes(count, type, "reduce");
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, span, "reduce");
  // Non-root ranks may pass any recv buffer; only the root's is written.
  std::byte* rp = getRank() == root
                      ? buffer_address(recvbuf, span, "reduce")
                      : buffer_address(recvbuf, 0, "reduce");
  if (type.isBasic()) {
    native_.reduce(sp, rp, static_cast<std::size_t>(count), type.kind(),
                   op.native(), root);
  } else {
    native_.reduce(sp, rp, count, type.native(), op.native(), root);
  }
}

void Comm::allReduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf,
                     int count, const Datatype& type, const Op& op) const {
  JHPC_REQUIRE(valid(), "allReduce on invalid communicator");
  const std::size_t span = span_bytes(count, type, "allReduce");
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, span, "allReduce");
  std::byte* rp = buffer_address(recvbuf, span, "allReduce");
  if (type.isBasic()) {
    native_.allreduce(sp, rp, static_cast<std::size_t>(count), type.kind(),
                      op.native());
  } else {
    native_.allreduce(sp, rp, count, type.native(), op.native());
  }
}

void Comm::reduceScatterBlock(const ByteBuffer& sendbuf,
                              ByteBuffer& recvbuf, int recvcount,
                              const Datatype& type, const Op& op) const {
  JHPC_REQUIRE(valid(), "reduceScatterBlock on invalid communicator");
  const std::size_t block = basic_only(recvcount, type, "reduceScatterBlock");
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(
      sendbuf, block * static_cast<std::size_t>(getSize()),
      "reduceScatterBlock");
  std::byte* rp = buffer_address(recvbuf, block, "reduceScatterBlock");
  native_.reduce_scatter_block(sp, rp,
                               static_cast<std::size_t>(recvcount),
                               type.kind(), op.native());
}

void Comm::scan(const ByteBuffer& sendbuf, ByteBuffer& recvbuf, int count,
                const Datatype& type, const Op& op) const {
  JHPC_REQUIRE(valid(), "scan on invalid communicator");
  const std::size_t bytes = basic_only(count, type, "scan");
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, bytes, "scan");
  std::byte* rp = buffer_address(recvbuf, bytes, "scan");
  native_.scan(sp, rp, static_cast<std::size_t>(count), type.kind(),
               op.native());
}

void Comm::gather(const ByteBuffer& sendbuf, int count, const Datatype& type,
                  ByteBuffer& recvbuf, int root) const {
  JHPC_REQUIRE(valid(), "gather on invalid communicator");
  const std::size_t span = span_bytes(count, type, "gather");
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, span, "gather");
  std::byte* rp =
      getRank() == root
          ? buffer_address(recvbuf,
                           span * static_cast<std::size_t>(getSize()),
                           "gather")
          : nullptr;
  if (type.isBasic()) {
    native_.gather(sp, payload_bytes(count, type), rp, root);
  } else {
    native_.gather(sp, count, type.native(), rp, root);
  }
}

void Comm::scatter(const ByteBuffer& sendbuf, int count,
                   const Datatype& type, ByteBuffer& recvbuf,
                   int root) const {
  JHPC_REQUIRE(valid(), "scatter on invalid communicator");
  const std::size_t span = span_bytes(count, type, "scatter");
  env_->jvm_->jni().crossing();
  const std::byte* sp =
      getRank() == root
          ? buffer_address(sendbuf,
                           span * static_cast<std::size_t>(getSize()),
                           "scatter")
          : nullptr;
  std::byte* rp = buffer_address(recvbuf, span, "scatter");
  if (type.isBasic()) {
    native_.scatter(sp, payload_bytes(count, type), rp, root);
  } else {
    native_.scatter(sp, count, type.native(), rp, root);
  }
}

void Comm::allGather(const ByteBuffer& sendbuf, int count,
                     const Datatype& type, ByteBuffer& recvbuf) const {
  JHPC_REQUIRE(valid(), "allGather on invalid communicator");
  const std::size_t span = span_bytes(count, type, "allGather");
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, span, "allGather");
  std::byte* rp = buffer_address(
      recvbuf, span * static_cast<std::size_t>(getSize()), "allGather");
  if (type.isBasic()) {
    native_.allgather(sp, payload_bytes(count, type), rp);
  } else {
    native_.allgather(sp, count, type.native(), rp);
  }
}

void Comm::allToAll(const ByteBuffer& sendbuf, int count,
                    const Datatype& type, ByteBuffer& recvbuf) const {
  JHPC_REQUIRE(valid(), "allToAll on invalid communicator");
  const std::size_t span = span_bytes(count, type, "allToAll");
  const auto total = span * static_cast<std::size_t>(getSize());
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, total, "allToAll");
  std::byte* rp = buffer_address(recvbuf, total, "allToAll");
  if (type.isBasic()) {
    native_.alltoall(sp, payload_bytes(count, type), rp);
  } else {
    native_.alltoall(sp, count, type.native(), rp);
  }
}

// --- Nonblocking collectives: ByteBuffer ----------------------------------------

Request Comm::iBarrier() const {
  JHPC_REQUIRE(valid(), "iBarrier on invalid communicator");
  env_->jvm_->jni().crossing();
  return Request(native_.ibarrier(), nullptr);
}

Request Comm::iBcast(ByteBuffer& buf, int count, const Datatype& type,
                     int root) const {
  JHPC_REQUIRE(valid(), "iBcast on invalid communicator");
  const std::size_t span = span_bytes(count, type, "iBcast");
  env_->jvm_->jni().crossing();
  std::byte* p = buffer_address(buf, span, "iBcast");
  if (type.isBasic()) {
    return Request(native_.ibcast(p, payload_bytes(count, type), root),
                   nullptr);
  }
  return Request(native_.ibcast(p, count, type.native(), root), nullptr);
}

Request Comm::iReduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf,
                      int count, const Datatype& type, const Op& op,
                      int root) const {
  JHPC_REQUIRE(valid(), "iReduce on invalid communicator");
  const std::size_t span = span_bytes(count, type, "iReduce");
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, span, "iReduce");
  // Non-root ranks may pass any recv buffer; only the root's is written.
  std::byte* rp = getRank() == root
                      ? buffer_address(recvbuf, span, "iReduce")
                      : buffer_address(recvbuf, 0, "iReduce");
  if (type.isBasic()) {
    return Request(native_.ireduce(sp, rp, static_cast<std::size_t>(count),
                                   type.kind(), op.native(), root),
                   nullptr);
  }
  return Request(
      native_.ireduce(sp, rp, count, type.native(), op.native(), root),
      nullptr);
}

Request Comm::iAllReduce(const ByteBuffer& sendbuf, ByteBuffer& recvbuf,
                         int count, const Datatype& type,
                         const Op& op) const {
  JHPC_REQUIRE(valid(), "iAllReduce on invalid communicator");
  const std::size_t span = span_bytes(count, type, "iAllReduce");
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, span, "iAllReduce");
  std::byte* rp = buffer_address(recvbuf, span, "iAllReduce");
  if (type.isBasic()) {
    return Request(native_.iallreduce(sp, rp, static_cast<std::size_t>(count),
                                      type.kind(), op.native()),
                   nullptr);
  }
  return Request(
      native_.iallreduce(sp, rp, count, type.native(), op.native()), nullptr);
}

Request Comm::iGather(const ByteBuffer& sendbuf, int count,
                      const Datatype& type, ByteBuffer& recvbuf,
                      int root) const {
  JHPC_REQUIRE(valid(), "iGather on invalid communicator");
  const std::size_t span = span_bytes(count, type, "iGather");
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, span, "iGather");
  std::byte* rp =
      getRank() == root
          ? buffer_address(recvbuf,
                           span * static_cast<std::size_t>(getSize()),
                           "iGather")
          : buffer_address(recvbuf, 0, "iGather");
  if (type.isBasic()) {
    return Request(native_.igather(sp, payload_bytes(count, type), rp, root),
                   nullptr);
  }
  return Request(native_.igather(sp, count, type.native(), rp, root),
                 nullptr);
}

Request Comm::iScatter(const ByteBuffer& sendbuf, int count,
                       const Datatype& type, ByteBuffer& recvbuf,
                       int root) const {
  JHPC_REQUIRE(valid(), "iScatter on invalid communicator");
  const std::size_t span = span_bytes(count, type, "iScatter");
  env_->jvm_->jni().crossing();
  const std::byte* sp =
      getRank() == root
          ? buffer_address(sendbuf,
                           span * static_cast<std::size_t>(getSize()),
                           "iScatter")
          : buffer_address(sendbuf, 0, "iScatter");
  std::byte* rp = buffer_address(recvbuf, span, "iScatter");
  if (type.isBasic()) {
    return Request(native_.iscatter(sp, payload_bytes(count, type), rp, root),
                   nullptr);
  }
  return Request(native_.iscatter(sp, count, type.native(), rp, root),
                 nullptr);
}

Request Comm::iAllGather(const ByteBuffer& sendbuf, int count,
                         const Datatype& type, ByteBuffer& recvbuf) const {
  JHPC_REQUIRE(valid(), "iAllGather on invalid communicator");
  const std::size_t span = span_bytes(count, type, "iAllGather");
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, span, "iAllGather");
  std::byte* rp = buffer_address(
      recvbuf, span * static_cast<std::size_t>(getSize()), "iAllGather");
  if (type.isBasic()) {
    return Request(native_.iallgather(sp, payload_bytes(count, type), rp),
                   nullptr);
  }
  return Request(native_.iallgather(sp, count, type.native(), rp), nullptr);
}

Request Comm::iAllToAll(const ByteBuffer& sendbuf, int count,
                        const Datatype& type, ByteBuffer& recvbuf) const {
  JHPC_REQUIRE(valid(), "iAllToAll on invalid communicator");
  const std::size_t span = span_bytes(count, type, "iAllToAll");
  const auto total = span * static_cast<std::size_t>(getSize());
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, total, "iAllToAll");
  std::byte* rp = buffer_address(recvbuf, total, "iAllToAll");
  if (type.isBasic()) {
    return Request(native_.ialltoall(sp, payload_bytes(count, type), rp),
                   nullptr);
  }
  return Request(native_.ialltoall(sp, count, type.native(), rp), nullptr);
}

// --- Vectored collectives: ByteBuffer -------------------------------------------

void Comm::gatherv(const ByteBuffer& sendbuf, int sendcount,
                   const Datatype& type, ByteBuffer& recvbuf,
                   std::span<const int> recvcounts,
                   std::span<const int> displs, int root) const {
  JHPC_REQUIRE(valid(), "gatherv on invalid communicator");
  const std::size_t sbytes = basic_only(sendcount, type, "gatherv");
  const auto counts = detail::to_bytes(recvcounts, type.size());
  const auto offs = detail::to_bytes(displs, type.size());
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, sbytes, "gatherv");
  std::byte* rp =
      getRank() == root
          ? buffer_address(recvbuf, detail::span_end(counts, offs), "gatherv")
          : nullptr;
  native_.gatherv(sp, sbytes, rp, counts, offs, root);
}

void Comm::scatterv(const ByteBuffer& sendbuf,
                    std::span<const int> sendcounts,
                    std::span<const int> displs, const Datatype& type,
                    ByteBuffer& recvbuf, int recvcount, int root) const {
  JHPC_REQUIRE(valid(), "scatterv on invalid communicator");
  const std::size_t rbytes = basic_only(recvcount, type, "scatterv");
  const auto counts = detail::to_bytes(sendcounts, type.size());
  const auto offs = detail::to_bytes(displs, type.size());
  env_->jvm_->jni().crossing();
  const std::byte* sp =
      getRank() == root ? buffer_address(sendbuf,
                                         detail::span_end(counts, offs),
                                         "scatterv")
                        : nullptr;
  std::byte* rp = buffer_address(recvbuf, rbytes, "scatterv");
  native_.scatterv(sp, counts, offs, rp, rbytes, root);
}

void Comm::allGatherv(const ByteBuffer& sendbuf, int sendcount,
                      const Datatype& type, ByteBuffer& recvbuf,
                      std::span<const int> recvcounts,
                      std::span<const int> displs) const {
  JHPC_REQUIRE(valid(), "allGatherv on invalid communicator");
  const std::size_t sbytes = basic_only(sendcount, type, "allGatherv");
  const auto counts = detail::to_bytes(recvcounts, type.size());
  const auto offs = detail::to_bytes(displs, type.size());
  env_->jvm_->jni().crossing();
  const std::byte* sp = buffer_address(sendbuf, sbytes, "allGatherv");
  std::byte* rp =
      buffer_address(recvbuf, detail::span_end(counts, offs), "allGatherv");
  native_.allgatherv(sp, sbytes, rp, counts, offs);
}

void Comm::allToAllv(const ByteBuffer& sendbuf,
                     std::span<const int> sendcounts,
                     std::span<const int> sdispls, const Datatype& type,
                     ByteBuffer& recvbuf, std::span<const int> recvcounts,
                     std::span<const int> rdispls) const {
  JHPC_REQUIRE(valid(), "allToAllv on invalid communicator");
  (void)basic_only(0, type, "allToAllv");
  const auto sc = detail::to_bytes(sendcounts, type.size());
  const auto so = detail::to_bytes(sdispls, type.size());
  const auto rc = detail::to_bytes(recvcounts, type.size());
  const auto ro = detail::to_bytes(rdispls, type.size());
  env_->jvm_->jni().crossing();
  const std::byte* sp =
      buffer_address(sendbuf, detail::span_end(sc, so), "allToAllv");
  std::byte* rp =
      buffer_address(recvbuf, detail::span_end(rc, ro), "allToAllv");
  native_.alltoallv(sp, sc, so, rp, rc, ro);
}

// --- Communicator management ------------------------------------------------------

Comm Comm::dup() const {
  JHPC_REQUIRE(valid(), "dup on invalid communicator");
  env_->jvm_->jni().crossing();
  return Comm(env_, native_.dup());
}

Comm Comm::split(int color, int key) const {
  JHPC_REQUIRE(valid(), "split on invalid communicator");
  env_->jvm_->jni().crossing();
  minimpi::Comm sub = native_.split(color, key);
  if (!sub.valid()) return Comm{};
  return Comm(env_, sub);
}

// --- Fault tolerance (ULFM) --------------------------------------------------

void Comm::setErrhandler(Errhandler eh) const {
  JHPC_REQUIRE(valid(), "setErrhandler on invalid communicator");
  env_->jvm_->jni().crossing();
  native_.set_errhandler(eh);
}

Errhandler Comm::getErrhandler() const {
  JHPC_REQUIRE(valid(), "getErrhandler on invalid communicator");
  return native_.errhandler();
}

void Comm::revoke() const {
  JHPC_REQUIRE(valid(), "revoke on invalid communicator");
  env_->jvm_->jni().crossing();
  native_.revoke();
}

Comm Comm::shrink() const {
  JHPC_REQUIRE(valid(), "shrink on invalid communicator");
  env_->jvm_->jni().crossing();
  return Comm(env_, native_.shrink());
}

int Comm::agree(int flag) const {
  JHPC_REQUIRE(valid(), "agree on invalid communicator");
  env_->jvm_->jni().crossing();
  return native_.agree(flag);
}

std::vector<int> Comm::getFailedRanks() const {
  JHPC_REQUIRE(valid(), "getFailedRanks on invalid communicator");
  return native_.failed_ranks();
}

}  // namespace jhpc::mv2j
