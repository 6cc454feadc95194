// The reserved tag space of minimpi's internal traffic: the fixed tags of
// the context-id agreement, the hier suite's leader phase and one-sided
// sync tokens. Top-level collectives draw per-operation tags from the
// schedule engine's block above these (detail/coll_nbc.hpp).
#pragma once

namespace jhpc::minimpi::detail {

// Reserved tag space for collectives (user tags are < 2^28). The
// reservation is enforced: Comm::send/recv & co. reject tags >= kTagBase
// unless the calling thread is inside an InternalTagScope.
inline constexpr int kTagBase = 1 << 28;

/// RAII: marks the current thread as running inside collective (or other
/// internal) code, so the reserved tag space passes the user-tag checks.
/// Nestable; collectives run entirely on the calling rank's thread, so a
/// thread-local depth is exactly the right scope.
class InternalTagScope {
 public:
  InternalTagScope();
  ~InternalTagScope();
  InternalTagScope(const InternalTagScope&) = delete;
  InternalTagScope& operator=(const InternalTagScope&) = delete;
};

/// True while the calling thread holds at least one InternalTagScope.
bool internal_tags_allowed();

enum CollTag : int {
  kTagCommMgmt = kTagBase,
  // hier suite: inter-node traffic among node leaders (coll_hier.cpp).
  kTagHierBarrier,
  kTagHierBcast,
  kTagHierReduce,
  kTagHierAllreduce,
  kTagHierGather,
  kTagHierRootXfer,
  // One-sided sync tokens (win.cpp): window `w` uses kTagWinSync + 2*w
  // for post->start tokens and kTagWinSync + 2*w + 1 for
  // complete->wait tokens. MUST stay the last entry: the window id
  // scales the offset open-endedly.
  kTagWinSync,
};

}  // namespace jhpc::minimpi::detail
