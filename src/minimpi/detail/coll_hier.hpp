// The "hier" collective suite: topology-aware two-level algorithms in the
// XHC/SMHC style (per-node leader hierarchies over shared flag trees).
//
// Each collective decomposes into an intra-node phase over a per-node
// shared segment (UniverseImpl::hier_segment) and an inter-node phase run
// among the node leaders with the schedule engine's mv2 builders. The
// intra-node data path is single-copy: receivers memcpy directly out of
// the publishing rank's live user buffer, which stays pinned (the
// publisher does not return) until every reader acknowledged via the
// segment's done flags.
//
// Only the collectives below are specialised; the schedule engine
// (coll_nbc.cpp) runs the mv2 shapes for everything else, so a hier
// Universe still serves the full collective API.
#pragma once

#include <cstddef>

#include "jhpc/minimpi/comm.hpp"

namespace jhpc::minimpi::detail::hier {

void barrier(const Comm& c);
void bcast(const Comm& c, void* buf, std::size_t bytes, int root);
void reduce(const Comm& c, const void* sbuf, void* rbuf, std::size_t count,
            BasicKind kind, ReduceOp op, int root);
void allreduce(const Comm& c, const void* sbuf, void* rbuf,
               std::size_t count, BasicKind kind, ReduceOp op);
void gather(const Comm& c, const void* sbuf, std::size_t bpr, void* rbuf,
            int root);

}  // namespace jhpc::minimpi::detail::hier
