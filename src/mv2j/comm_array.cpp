// Java-array paths of the binding core. Every call stages its arrays by
// the profile's policy (class Stage below), then makes one JNI crossing
// and the native MPI call on the staged memory.
//
// MVAPICH2-J is the paper's Figure 3 pipeline, built on the mpjbuf
// buffering layer:
//
//   1. acquire a pooled direct staging buffer,
//   2. bulk-copy the Java array onto it (mpjbuf write),
//   3. one JNI crossing with the staging buffer reference,
//   4. native MPI call on the staging buffer's stable pointer,
//   (receive side mirrors with mpjbuf read).
//
// Because the staging buffer can outlive the call inside a Request, the
// same pipeline supports non-blocking operations. Open MPI-J has no pool:
// a region malloc'd per call (Get/Set<Type>ArrayRegion) cannot outlive
// the call, so it rejects arrays with iSend/iRecv, and it cannot pack
// derived datatypes.
#include <climits>
#include <memory>

#include "checks.hpp"
#include "jhpc/minijvm/jni.hpp"
#include "jhpc/mv2j/comm.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::mv2j {

using detail::basic_only;
using detail::payload_bytes;

namespace {

/// How a rank stages arrays: MVAPICH2-J's pool, or (null) Open MPI-J's
/// per-call regions.
struct Stager {
  mpjbuf::BufferFactory* pool;
  minijvm::JniEnv& jni;
};

/// Validate an (offset, count, type) triple against a backing array.
/// With a pool, derived datatypes are packed through the buffering layer
/// (the span check uses the type's extent, slightly conservative for
/// trailing strided gaps, and the layout may not reach below the array
/// start); without one only basic types are accepted.
template <JavaPrimitive T>
void check_args(const Stager& sg, const JArray<T>& buf, std::size_t offset,
                int count, const Datatype& type, const char* what) {
  JHPC_REQUIRE(count >= 0, std::string(what) + ": negative count");
  const bool basic = type.isBasic();
  JHPC_REQUIRE(kind_of<T>() == type.leafKind() &&
                   (basic || sg.pool != nullptr),
               std::string(what) + ": datatype does not match array type");
  const std::size_t span_bytes =
      offset * sizeof(T) + static_cast<std::size_t>(count) * type.extent();
  JHPC_REQUIRE(span_bytes <= buf.length() * sizeof(T),
               std::string(what) + ": offset+count exceeds array length");
  const std::ptrdiff_t lb = basic ? 0 : type.native().true_lb();
  JHPC_REQUIRE(count == 0 || lb >= 0 ||
                   static_cast<std::size_t>(-lb) <= offset * sizeof(T),
               std::string(what) + ": datatype reaches below the array start");
}

template <JavaPrimitive T>
void check_args(const Stager& sg, const JArray<T>& buf, int count,
                const Datatype& type, const char* what) {
  check_args(sg, buf, 0, count, type, what);
}

[[noreturn]] void no_nonblocking_arrays() {
  throw UnsupportedOperationError(
      "Open MPI-J does not support Java arrays with non-blocking "
      "point-to-point operations (use a direct ByteBuffer)");
}

std::size_t checked_offset(int offset, const char* what) {
  JHPC_REQUIRE(offset >= 0, std::string(what) + ": negative offset");
  return static_cast<std::size_t>(offset);
}

/// `count` elements for each of `ranks` ranks, as one element count.
int all_ranks(int count, int ranks, const char* what) {
  JHPC_REQUIRE(count >= 0, std::string(what) + ": negative count");
  const auto total =
      static_cast<std::size_t>(count) * static_cast<std::size_t>(ranks);
  JHPC_REQUIRE(total <= static_cast<std::size_t>(INT_MAX),
               std::string(what) + ": count * size overflows int");
  return static_cast<int>(total);
}

/// Native memory for one side of one call: `count` elements of `type`
/// from element `offset` of a Java array.
///
///   * Pool (MVAPICH2-J): a pooled direct buffer. The array is copied in
///     only when the native call reads it (`in`) and copied out only
///     after the call wrote it; derived types are packed onto consecutive
///     staging locations (paper Section IV-B).
///   * No pool (Open MPI-J): a region malloc'd per call and sized by the
///     message. Get<Type>ArrayRegion copies in unconditionally (the
///     binding cannot know whether the native routine reads it) and
///     Set<Type>ArrayRegion copies the whole region back.
template <JavaPrimitive T>
class Stage {
 public:
  /// No memory (the unused side of a rooted collective).
  Stage() = default;

  /// Scratch memory for `bytes` with no array behind it.
  Stage(const Stager& sg, std::size_t bytes) : bytes_(bytes) {
    if (sg.pool != nullptr) {
      pooled_ = sg.pool->get(bytes);
    } else {
      region_.resize(bytes / sizeof(T));
    }
  }

  Stage(const Stager& sg, const JArray<T>& array, std::size_t offset,
        int count, const Datatype& type, bool in)
      : offset_(offset), bytes_(payload_bytes(count, type)) {
    if (sg.pool == nullptr) {
      jni_ = &sg.jni;
      region_.resize(bytes_ / sizeof(T));
      jni_->get_array_region(array, offset, region_.size(), region_.data());
      return;
    }
    pooled_ = sg.pool->get(bytes_);
    if (!in) return;
    if (type.isBasic()) {
      pooled_.write(array, offset, static_cast<std::size_t>(count));
    } else {
      type.native().pack(array.raw_address() + offset * sizeof(T),
                         pooled_.reserve(bytes_), count);
    }
    pooled_.commit();
  }

  std::byte* data() {
    if (pooled_.is_valid()) return pooled_.native_address();
    return region_.empty() ? nullptr
                           : reinterpret_cast<std::byte*>(region_.data());
  }
  std::size_t bytes() const { return bytes_; }

  /// The native call wrote `bytes` of `type` elements: copy them back into
  /// `array` (the array this stage was made from).
  void copy_back(JArray<T>& array, std::size_t bytes, const Datatype& type) {
    if (jni_ != nullptr) {
      jni_->set_array_region(array, offset_, region_.size(), region_.data());
      return;
    }
    pooled_.notify_native_write(bytes);
    if (type.isBasic()) {
      pooled_.read(array, offset_, bytes / sizeof(T));
    } else {
      const auto count = static_cast<int>(bytes / type.size());
      type.native().unpack(pooled_.consume(bytes),
                           array.raw_address() + offset_ * sizeof(T), count);
    }
  }

 private:
  minijvm::JniEnv* jni_ = nullptr;  ///< set for a per-call region
  std::size_t offset_ = 0;
  std::size_t bytes_ = 0;
  mpjbuf::Buffer pooled_;
  std::vector<T> region_;
};

/// Byte counts/displacements of a vectored array collective, whose
/// element counts are in T units (basic datatypes only).
template <JavaPrimitive T>
struct Layout {
  Layout(std::span<const int> counts_in, std::span<const int> displs_in)
      : counts(detail::to_bytes(counts_in, sizeof(T))),
        offs(detail::to_bytes(displs_in, sizeof(T))),
        end(detail::span_end(counts, offs)) {}
  std::vector<std::size_t> counts, offs;
  std::size_t end;
  int elems() const {
    JHPC_REQUIRE(end / sizeof(T) <= static_cast<std::size_t>(INT_MAX),
                 "vectored collective: layout exceeds int elements");
    return static_cast<int>(end / sizeof(T));
  }
};

}  // namespace

// --- Point-to-point ----------------------------------------------------------

template <JavaPrimitive T>
void Comm::send(const JArray<T>& buf, int offset, int count,
                const Datatype& type, int dest, int tag) const {
  JHPC_REQUIRE(valid(), "send on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  const std::size_t off = checked_offset(offset, "send");
  check_args(sg, buf, off, count, type, "send");
  Stage<T> stage(sg, buf, off, count, type, true);           // steps 1-2
  sg.jni.crossing();                                         // step 3
  native_.send(stage.data(), stage.bytes(), dest, tag);      // step 4
}

template <JavaPrimitive T>
void Comm::send(const JArray<T>& buf, int count, const Datatype& type,
                int dest, int tag) const {
  send(buf, 0, count, type, dest, tag);
}

template <JavaPrimitive T>
Status Comm::recv(JArray<T>& buf, int offset, int count,
                  const Datatype& type, int source, int tag) const {
  JHPC_REQUIRE(valid(), "recv on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  const std::size_t off = checked_offset(offset, "recv");
  check_args(sg, buf, off, count, type, "recv");
  Stage<T> stage(sg, buf, off, count, type, false);
  sg.jni.crossing();
  minimpi::Status st;
  native_.recv(stage.data(), stage.bytes(), source, tag, &st);
  stage.copy_back(buf, st.count_bytes, type);
  return Status(st);
}

template <JavaPrimitive T>
Status Comm::recv(JArray<T>& buf, int count, const Datatype& type,
                  int source, int tag) const {
  return recv(buf, 0, count, type, source, tag);
}

template <JavaPrimitive T>
Request Comm::iSend(const JArray<T>& buf, int offset, int count,
                    const Datatype& type, int dest, int tag) const {
  JHPC_REQUIRE(valid(), "iSend on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  if (sg.pool == nullptr) no_nonblocking_arrays();
  const std::size_t off = checked_offset(offset, "iSend");
  check_args(sg, buf, off, count, type, "iSend");
  auto stage = std::make_shared<Stage<T>>(sg, buf, off, count, type, true);
  sg.jni.crossing();
  minimpi::Request r = native_.isend(stage->data(), stage->bytes(), dest, tag);
  auto completion = std::make_shared<Request::CompletionState>();
  // Nothing to copy back; the completion merely keeps the staging buffer
  // alive until the native send no longer needs it.
  completion->on_complete = [stage](const minimpi::Status&) {};
  return Request(std::move(r), std::move(completion));
}

template <JavaPrimitive T>
Request Comm::iSend(const JArray<T>& buf, int count, const Datatype& type,
                    int dest, int tag) const {
  return iSend(buf, 0, count, type, dest, tag);
}

template <JavaPrimitive T>
Request Comm::iRecv(JArray<T>& buf, int offset, int count,
                    const Datatype& type, int source, int tag) const {
  JHPC_REQUIRE(valid(), "iRecv on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  if (sg.pool == nullptr) no_nonblocking_arrays();
  const std::size_t off = checked_offset(offset, "iRecv");
  check_args(sg, buf, off, count, type, "iRecv");
  auto stage = std::make_shared<Stage<T>>(sg, buf, off, count, type, false);
  sg.jni.crossing();
  minimpi::Request r =
      native_.irecv(stage->data(), stage->bytes(), source, tag);
  auto completion = std::make_shared<Request::CompletionState>();
  JArray<T> target = buf;  // shared handle: keeps the array alive
  const Datatype dt = type;
  completion->on_complete = [stage, target,
                             dt](const minimpi::Status& st) mutable {
    stage->copy_back(target, st.count_bytes, dt);
  };
  return Request(std::move(r), std::move(completion));
}

template <JavaPrimitive T>
Request Comm::iRecv(JArray<T>& buf, int count, const Datatype& type,
                    int source, int tag) const {
  return iRecv(buf, 0, count, type, source, tag);
}

// --- Blocking collectives -------------------------------------------------------

template <JavaPrimitive T>
void Comm::bcast(JArray<T>& buf, int count, const Datatype& type,
                 int root) const {
  JHPC_REQUIRE(valid(), "bcast on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  check_args(sg, buf, count, type, "bcast");
  const bool is_root = getRank() == root;
  Stage<T> stage(sg, buf, 0, count, type, is_root);
  sg.jni.crossing();
  native_.bcast(stage.data(), stage.bytes(), root);
  if (!is_root) stage.copy_back(buf, stage.bytes(), type);
}

template <JavaPrimitive T>
void Comm::reduce(const JArray<T>& sendbuf, JArray<T>& recvbuf, int count,
                  const Datatype& type, const Op& op, int root) const {
  JHPC_REQUIRE(valid(), "reduce on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  check_args(sg, sendbuf, count, type, "reduce");
  const bool is_root = getRank() == root;
  if (is_root) check_args(sg, recvbuf, count, type, "reduce(recv)");
  Stage<T> s(sg, sendbuf, 0, count, type, true);
  // Non-root ranks reduce into scratch memory; only the root's is kept.
  Stage<T> r = is_root ? Stage<T>(sg, recvbuf, 0, count, type, false)
                       : Stage<T>(sg, s.bytes());
  sg.jni.crossing();
  native_.reduce(s.data(), r.data(), static_cast<std::size_t>(count),
                 type.kind(), op.native(), root);
  if (is_root) r.copy_back(recvbuf, r.bytes(), type);
}

template <JavaPrimitive T>
void Comm::allReduce(const JArray<T>& sendbuf, JArray<T>& recvbuf, int count,
                     const Datatype& type, const Op& op) const {
  JHPC_REQUIRE(valid(), "allReduce on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  check_args(sg, sendbuf, count, type, "allReduce");
  check_args(sg, recvbuf, count, type, "allReduce(recv)");
  Stage<T> s(sg, sendbuf, 0, count, type, true);
  Stage<T> r(sg, recvbuf, 0, count, type, false);
  sg.jni.crossing();
  native_.allreduce(s.data(), r.data(), static_cast<std::size_t>(count),
                    type.kind(), op.native());
  r.copy_back(recvbuf, r.bytes(), type);
}

template <JavaPrimitive T>
void Comm::reduceScatterBlock(const JArray<T>& sendbuf, JArray<T>& recvbuf,
                              int recvcount, const Datatype& type,
                              const Op& op) const {
  JHPC_REQUIRE(valid(), "reduceScatterBlock on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  check_args(sg, recvbuf, recvcount, type, "reduceScatterBlock(recv)");
  const int total = all_ranks(recvcount, getSize(), "reduceScatterBlock");
  check_args(sg, sendbuf, total, type, "reduceScatterBlock");
  Stage<T> s(sg, sendbuf, 0, total, type, true);
  Stage<T> r(sg, recvbuf, 0, recvcount, type, false);
  sg.jni.crossing();
  native_.reduce_scatter_block(s.data(), r.data(),
                               static_cast<std::size_t>(recvcount),
                               type.kind(), op.native());
  r.copy_back(recvbuf, r.bytes(), type);
}

template <JavaPrimitive T>
void Comm::scan(const JArray<T>& sendbuf, JArray<T>& recvbuf, int count,
                const Datatype& type, const Op& op) const {
  JHPC_REQUIRE(valid(), "scan on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  check_args(sg, sendbuf, count, type, "scan");
  check_args(sg, recvbuf, count, type, "scan(recv)");
  Stage<T> s(sg, sendbuf, 0, count, type, true);
  Stage<T> r(sg, recvbuf, 0, count, type, false);
  sg.jni.crossing();
  native_.scan(s.data(), r.data(), static_cast<std::size_t>(count),
               type.kind(), op.native());
  r.copy_back(recvbuf, r.bytes(), type);
}

template <JavaPrimitive T>
void Comm::gather(const JArray<T>& sendbuf, int count, const Datatype& type,
                  JArray<T>& recvbuf, int root) const {
  JHPC_REQUIRE(valid(), "gather on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  check_args(sg, sendbuf, count, type, "gather");
  const bool is_root = getRank() == root;
  const int total = all_ranks(count, getSize(), "gather");
  if (is_root) check_args(sg, recvbuf, total, type, "gather(recv)");
  Stage<T> s(sg, sendbuf, 0, count, type, true);
  Stage<T> r = is_root ? Stage<T>(sg, recvbuf, 0, total, type, false)
                       : Stage<T>();
  sg.jni.crossing();
  native_.gather(s.data(), s.bytes(), r.data(), root);
  if (is_root) r.copy_back(recvbuf, r.bytes(), type);
}

template <JavaPrimitive T>
void Comm::scatter(const JArray<T>& sendbuf, int count, const Datatype& type,
                   JArray<T>& recvbuf, int root) const {
  JHPC_REQUIRE(valid(), "scatter on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  check_args(sg, recvbuf, count, type, "scatter(recv)");
  const bool is_root = getRank() == root;
  const int total = all_ranks(count, getSize(), "scatter");
  if (is_root) check_args(sg, sendbuf, total, type, "scatter");
  Stage<T> s = is_root ? Stage<T>(sg, sendbuf, 0, total, type, true)
                       : Stage<T>();
  Stage<T> r(sg, recvbuf, 0, count, type, false);
  sg.jni.crossing();
  native_.scatter(s.data(), r.bytes(), r.data(), root);
  r.copy_back(recvbuf, r.bytes(), type);
}

template <JavaPrimitive T>
void Comm::allGather(const JArray<T>& sendbuf, int count,
                     const Datatype& type, JArray<T>& recvbuf) const {
  JHPC_REQUIRE(valid(), "allGather on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  check_args(sg, sendbuf, count, type, "allGather");
  const int total = all_ranks(count, getSize(), "allGather");
  check_args(sg, recvbuf, total, type, "allGather(recv)");
  Stage<T> s(sg, sendbuf, 0, count, type, true);
  Stage<T> r(sg, recvbuf, 0, total, type, false);
  sg.jni.crossing();
  native_.allgather(s.data(), s.bytes(), r.data());
  r.copy_back(recvbuf, r.bytes(), type);
}

template <JavaPrimitive T>
void Comm::allToAll(const JArray<T>& sendbuf, int count,
                    const Datatype& type, JArray<T>& recvbuf) const {
  JHPC_REQUIRE(valid(), "allToAll on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  JHPC_REQUIRE(type.isBasic() && kind_of<T>() == type.kind(),
               "allToAll: datatype does not match array type");
  const int total = all_ranks(count, getSize(), "allToAll");
  check_args(sg, sendbuf, total, type, "allToAll");
  check_args(sg, recvbuf, total, type, "allToAll(recv)");
  Stage<T> s(sg, sendbuf, 0, total, type, true);
  Stage<T> r(sg, recvbuf, 0, total, type, false);
  sg.jni.crossing();
  native_.alltoall(s.data(), payload_bytes(count, type), r.data());
  r.copy_back(recvbuf, r.bytes(), type);
}

// --- Vectored collectives ----------------------------------------------------------
// Counts and displacements are in elements of T, so these take basic
// datatypes only (as the vectored ByteBuffer collectives do).

template <JavaPrimitive T>
void Comm::gatherv(const JArray<T>& sendbuf, int sendcount,
                   const Datatype& type, JArray<T>& recvbuf,
                   std::span<const int> recvcounts,
                   std::span<const int> displs, int root) const {
  JHPC_REQUIRE(valid(), "gatherv on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  check_args(sg, sendbuf, sendcount, type, "gatherv");
  (void)basic_only(sendcount, type, "gatherv");
  const Layout<T> in(recvcounts, displs);
  const bool is_root = getRank() == root;
  if (is_root) {
    JHPC_REQUIRE(recvbuf.length() * sizeof(T) >= in.end,
                 "gatherv: receive array too small");
  }
  Stage<T> s(sg, sendbuf, 0, sendcount, type, true);
  Stage<T> r = is_root ? Stage<T>(sg, recvbuf, 0, in.elems(), type, false)
                       : Stage<T>();
  sg.jni.crossing();
  native_.gatherv(s.data(), s.bytes(), r.data(), in.counts, in.offs, root);
  if (is_root) r.copy_back(recvbuf, in.end, type);
}

template <JavaPrimitive T>
void Comm::scatterv(const JArray<T>& sendbuf,
                    std::span<const int> sendcounts,
                    std::span<const int> displs, const Datatype& type,
                    JArray<T>& recvbuf, int recvcount, int root) const {
  JHPC_REQUIRE(valid(), "scatterv on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  check_args(sg, recvbuf, recvcount, type, "scatterv(recv)");
  (void)basic_only(recvcount, type, "scatterv");
  const Layout<T> out(sendcounts, displs);
  const bool is_root = getRank() == root;
  if (is_root) {
    JHPC_REQUIRE(sendbuf.length() * sizeof(T) >= out.end,
                 "scatterv: send array too small");
  }
  Stage<T> s = is_root ? Stage<T>(sg, sendbuf, 0, out.elems(), type, true)
                       : Stage<T>();
  Stage<T> r(sg, recvbuf, 0, recvcount, type, false);
  sg.jni.crossing();
  native_.scatterv(s.data(), out.counts, out.offs, r.data(), r.bytes(),
                   root);
  r.copy_back(recvbuf, r.bytes(), type);
}

template <JavaPrimitive T>
void Comm::allGatherv(const JArray<T>& sendbuf, int sendcount,
                      const Datatype& type, JArray<T>& recvbuf,
                      std::span<const int> recvcounts,
                      std::span<const int> displs) const {
  JHPC_REQUIRE(valid(), "allGatherv on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  check_args(sg, sendbuf, sendcount, type, "allGatherv");
  (void)basic_only(sendcount, type, "allGatherv");
  const Layout<T> in(recvcounts, displs);
  JHPC_REQUIRE(recvbuf.length() * sizeof(T) >= in.end,
               "allGatherv: receive array too small");
  Stage<T> s(sg, sendbuf, 0, sendcount, type, true);
  Stage<T> r(sg, recvbuf, 0, in.elems(), type, false);
  sg.jni.crossing();
  native_.allgatherv(s.data(), s.bytes(), r.data(), in.counts, in.offs);
  r.copy_back(recvbuf, in.end, type);
}

template <JavaPrimitive T>
void Comm::allToAllv(const JArray<T>& sendbuf,
                     std::span<const int> sendcounts,
                     std::span<const int> sdispls, const Datatype& type,
                     JArray<T>& recvbuf, std::span<const int> recvcounts,
                     std::span<const int> rdispls) const {
  JHPC_REQUIRE(valid(), "allToAllv on invalid communicator");
  const Stager sg{env_->pool_.get(), env_->jvm_->jni()};
  JHPC_REQUIRE(type.isBasic() && kind_of<T>() == type.kind(),
               "allToAllv: datatype does not match array type");
  const Layout<T> out(sendcounts, sdispls);
  const Layout<T> in(recvcounts, rdispls);
  JHPC_REQUIRE(sendbuf.length() * sizeof(T) >= out.end,
               "allToAllv: send array too small");
  JHPC_REQUIRE(recvbuf.length() * sizeof(T) >= in.end,
               "allToAllv: receive array too small");
  Stage<T> s(sg, sendbuf, 0, out.elems(), type, true);
  Stage<T> r(sg, recvbuf, 0, in.elems(), type, false);
  sg.jni.crossing();
  native_.alltoallv(s.data(), out.counts, out.offs, r.data(), in.counts,
                    in.offs);
  r.copy_back(recvbuf, in.end, type);
}

// --- Explicit instantiations for the eight Java primitive types --------------

#define JHPC_MV2J_INSTANTIATE(T)                                             \
  template void Comm::send<T>(const JArray<T>&, int, const Datatype&, int,   \
                              int) const;                                    \
  template Status Comm::recv<T>(JArray<T>&, int, const Datatype&, int, int)  \
      const;                                                                 \
  template Request Comm::iSend<T>(const JArray<T>&, int, const Datatype&,    \
                                  int, int) const;                           \
  template Request Comm::iRecv<T>(JArray<T>&, int, const Datatype&, int,     \
                                  int) const;                                \
  template void Comm::send<T>(const JArray<T>&, int, int, const Datatype&,   \
                              int, int) const;                               \
  template Status Comm::recv<T>(JArray<T>&, int, int, const Datatype&, int,  \
                                int) const;                                  \
  template Request Comm::iSend<T>(const JArray<T>&, int, int,                \
                                  const Datatype&, int, int) const;          \
  template Request Comm::iRecv<T>(JArray<T>&, int, int, const Datatype&,     \
                                  int, int) const;                           \
  template void Comm::bcast<T>(JArray<T>&, int, const Datatype&, int) const; \
  template void Comm::reduce<T>(const JArray<T>&, JArray<T>&, int,           \
                                const Datatype&, const Op&, int) const;      \
  template void Comm::allReduce<T>(const JArray<T>&, JArray<T>&, int,        \
                                   const Datatype&, const Op&) const;        \
  template void Comm::reduceScatterBlock<T>(const JArray<T>&, JArray<T>&,    \
                                            int, const Datatype&,            \
                                            const Op&) const;                \
  template void Comm::scan<T>(const JArray<T>&, JArray<T>&, int,             \
                              const Datatype&, const Op&) const;             \
  template void Comm::gather<T>(const JArray<T>&, int, const Datatype&,      \
                                JArray<T>&, int) const;                      \
  template void Comm::scatter<T>(const JArray<T>&, int, const Datatype&,     \
                                 JArray<T>&, int) const;                     \
  template void Comm::allGather<T>(const JArray<T>&, int, const Datatype&,   \
                                   JArray<T>&) const;                        \
  template void Comm::allToAll<T>(const JArray<T>&, int, const Datatype&,    \
                                  JArray<T>&) const;                         \
  template void Comm::gatherv<T>(const JArray<T>&, int, const Datatype&,     \
                                 JArray<T>&, std::span<const int>,           \
                                 std::span<const int>, int) const;           \
  template void Comm::scatterv<T>(const JArray<T>&, std::span<const int>,    \
                                  std::span<const int>, const Datatype&,     \
                                  JArray<T>&, int, int) const;               \
  template void Comm::allGatherv<T>(const JArray<T>&, int, const Datatype&,  \
                                    JArray<T>&, std::span<const int>,        \
                                    std::span<const int>) const;             \
  template void Comm::allToAllv<T>(const JArray<T>&, std::span<const int>,   \
                                   std::span<const int>, const Datatype&,    \
                                   JArray<T>&, std::span<const int>,         \
                                   std::span<const int>) const;

JHPC_MV2J_INSTANTIATE(minijvm::jbyte)
JHPC_MV2J_INSTANTIATE(minijvm::jboolean)
JHPC_MV2J_INSTANTIATE(minijvm::jchar)
JHPC_MV2J_INSTANTIATE(minijvm::jshort)
JHPC_MV2J_INSTANTIATE(minijvm::jint)
JHPC_MV2J_INSTANTIATE(minijvm::jlong)
JHPC_MV2J_INSTANTIATE(minijvm::jfloat)
JHPC_MV2J_INSTANTIATE(minijvm::jdouble)
#undef JHPC_MV2J_INSTANTIATE

}  // namespace jhpc::mv2j
