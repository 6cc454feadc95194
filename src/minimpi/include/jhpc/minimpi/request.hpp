// Non-blocking communication requests.
#pragma once

#include <memory>
#include <span>

#include "jhpc/minimpi/types.hpp"

namespace jhpc::minimpi {

namespace detail {
struct RequestState;
struct NbcState;
}

/// Handle to an in-flight non-blocking operation: a point-to-point send
/// or receive, or a nonblocking collective's schedule (ibcast & co.).
///
/// Copyable (shared handle semantics, like MPI_Request values passed
/// around by value). A default-constructed Request is the null request:
/// wait() returns immediately with an empty Status.
///
/// Progress semantics: the calling rank's active collective schedules
/// advance inside wait()/test() of any request, collective or
/// point-to-point (and therefore wait_all()/wait_any()) — all of them
/// are driven together, so mixed p2p + collective request sets and
/// out-of-order waits complete.
class Request {
 public:
  Request() = default;

  /// True when this handle refers to an actual operation.
  bool valid() const { return state_ != nullptr || nbc_ != nullptr; }

  /// Block until the operation completes; fills `status` if non-null.
  /// Waiting on the null request is a no-op (MPI_REQUEST_NULL semantics).
  void wait(Status* status = nullptr);

  /// Non-blocking completion check.
  bool test(Status* status = nullptr);

  /// Wait for every request in the span (MPI_Waitall).
  static void wait_all(std::span<Request> requests);

  /// Wait for any one request; returns its index (MPI_Waitany). Throws if
  /// all requests are null.
  static std::size_t wait_any(std::span<Request> requests,
                              Status* status = nullptr);

 private:
  friend class Comm;
  explicit Request(std::shared_ptr<detail::RequestState> state)
      : state_(std::move(state)) {}
  explicit Request(std::shared_ptr<detail::NbcState> nbc)
      : nbc_(std::move(nbc)) {}
  std::shared_ptr<detail::RequestState> state_;
  std::shared_ptr<detail::NbcState> nbc_;
};

}  // namespace jhpc::minimpi
