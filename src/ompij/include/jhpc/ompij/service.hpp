// Open MPI-J service mode: the binding core's service facade (see
// jhpc/mv2j/service.hpp and docs/SERVICE.md) over Open MPI-J jobs. Both
// bindings can share one JobManager-backed fleet in a mixed deployment;
// this facade owns a private one.
#pragma once

#include "jhpc/mv2j/service.hpp"
#include "jhpc/ompij/ompij.hpp"

namespace jhpc::ompij {

/// A resident Open MPI-J scheduler.
using ServiceJobOptions = mv2j::BasicServiceJobOptions<RunOptions>;
using Service = mv2j::BasicService<Env, RunOptions>;

}  // namespace jhpc::ompij
