// One-sided (mpi.Win) paths of the binding core: the Figure-4 pipeline
// applied to RMA — one JNI crossing per call, the direct buffer's stable
// pointer handed straight to the native window engine. Open MPI-J adds
// its per-call handle check to the data-movement calls.
#include "jhpc/mv2j/win.hpp"

#include <vector>

#include "checks.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::mv2j {

using detail::payload_bytes;

std::byte* Win::origin_address(const ByteBuffer& buf, int count,
                               const Datatype& type, const char* what) const {
  JHPC_REQUIRE(valid(), std::string(what) + " on invalid window");
  JHPC_REQUIRE(count >= 0, "negative element count");
  // Origins are always packed payloads (the window engine packs/scatters
  // derived layouts on the target side), so capacity checks use size().
  comm_.env_->marshalled_crossing();
  return comm_.buffer_address(buf, payload_bytes(count, type), what);
}

void Win::put(const ByteBuffer& origin, int count, const Datatype& type,
              int targetRank, std::size_t targetOffset) const {
  const std::byte* p = origin_address(origin, count, type, "Win.put");
  if (type.isBasic()) {
    native_.put(p, payload_bytes(count, type), targetRank, targetOffset);
  } else {
    native_.put(p, count, type.native(), targetRank, targetOffset,
                type.native());
  }
}

void Win::put(const ByteBuffer& origin, int count, const Datatype& type,
              int targetRank, std::size_t targetOffset,
              const Datatype& targetType) const {
  const std::byte* p = origin_address(origin, count, type, "Win.put");
  native_.put(p, count, type.native(), targetRank, targetOffset,
              targetType.native());
}

void Win::get(ByteBuffer& origin, int count, const Datatype& type,
              int targetRank, std::size_t targetOffset) const {
  std::byte* p = origin_address(origin, count, type, "Win.get");
  if (type.isBasic()) {
    native_.get(p, payload_bytes(count, type), targetRank, targetOffset);
  } else {
    native_.get(p, count, type.native(), targetRank, targetOffset,
                type.native());
  }
}

void Win::get(ByteBuffer& origin, int count, const Datatype& type,
              int targetRank, std::size_t targetOffset,
              const Datatype& targetType) const {
  std::byte* p = origin_address(origin, count, type, "Win.get");
  native_.get(p, count, type.native(), targetRank, targetOffset,
              targetType.native());
}

void Win::accumulate(const ByteBuffer& origin, int count,
                     const Datatype& type, const Op& op, int targetRank,
                     std::size_t targetOffset) const {
  const std::byte* p = origin_address(origin, count, type, "Win.accumulate");
  native_.accumulate(p, count, type.native(), op.native(), targetRank,
                     targetOffset);
}

void Win::fetchOp(const ByteBuffer& value, ByteBuffer& result,
                  const Datatype& type, const Op& op, int targetRank,
                  std::size_t targetOffset) const {
  JHPC_REQUIRE(type.isBasic(), "Win.fetchOp requires a basic datatype");
  const std::byte* v = origin_address(value, 1, type, "Win.fetchOp");
  std::byte* r = comm_.buffer_address(result, type.size(), "Win.fetchOp");
  native_.fetch_op(v, r, type.kind(), op.native(), targetRank, targetOffset);
}

void Win::fence() const {
  JHPC_REQUIRE(valid(), "fence on invalid window");
  comm_.env_->jvm().jni().crossing();
  native_.fence();
}

void Win::post(std::span<const int> group) const {
  JHPC_REQUIRE(valid(), "post on invalid window");
  comm_.env_->jvm().jni().crossing();
  native_.post(std::vector<int>(group.begin(), group.end()));
}

void Win::start(std::span<const int> group) const {
  JHPC_REQUIRE(valid(), "start on invalid window");
  comm_.env_->jvm().jni().crossing();
  native_.start(std::vector<int>(group.begin(), group.end()));
}

void Win::complete() const {
  JHPC_REQUIRE(valid(), "complete on invalid window");
  comm_.env_->jvm().jni().crossing();
  native_.complete();
}

void Win::waitFor() const {
  JHPC_REQUIRE(valid(), "waitFor on invalid window");
  comm_.env_->jvm().jni().crossing();
  native_.wait();
}

void Win::lock(LockType type, int targetRank) const {
  JHPC_REQUIRE(valid(), "lock on invalid window");
  comm_.env_->jvm().jni().crossing();
  native_.lock(type, targetRank);
}

void Win::unlock(int targetRank) const {
  JHPC_REQUIRE(valid(), "unlock on invalid window");
  comm_.env_->jvm().jni().crossing();
  native_.unlock(targetRank);
}

void Win::lockAll() const {
  JHPC_REQUIRE(valid(), "lockAll on invalid window");
  comm_.env_->jvm().jni().crossing();
  native_.lock_all();
}

void Win::unlockAll() const {
  JHPC_REQUIRE(valid(), "unlockAll on invalid window");
  comm_.env_->jvm().jni().crossing();
  native_.unlock_all();
}

void Win::free() {
  JHPC_REQUIRE(valid(), "free on invalid window");
  comm_.env_->jvm().jni().crossing();
  native_.free();
  comm_ = Comm();
}

// --- Window construction (Comm methods) --------------------------------------

Win Comm::winCreate(ByteBuffer& buf, std::size_t bytes) const {
  JHPC_REQUIRE(valid(), "winCreate on invalid communicator");
  env_->jvm_->jni().crossing();
  std::byte* base = buffer_address(buf, bytes, "winCreate");
  return Win(*this, native_.win_create(base, bytes));
}

Win Comm::winAllocate(std::size_t bytes) const {
  JHPC_REQUIRE(valid(), "winAllocate on invalid communicator");
  env_->jvm_->jni().crossing();
  return Win(*this, native_.win_allocate(bytes));
}

}  // namespace jhpc::mv2j
