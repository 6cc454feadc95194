// OMB-J benchmark bodies.
//
// Each function runs inside one rank of an already-launched job and
// returns the per-size results (meaningful on rank 0; the collective
// benchmarks reduce the per-rank averages as OMB does). The templates are
// instantiated for both binding environments — mv2j::Env and ompij::Env,
// the two profiles of one binding core, so they drive the same Comm
// class and differ only in the profile's policies; the native variants
// bypass the Java layer entirely (Figure 11's baseline).
#pragma once

#include <vector>

#include "jhpc/minimpi/comm.hpp"
#include "jhpc/mv2j/env.hpp"
#include "jhpc/ombj/options.hpp"
#include "jhpc/ompij/ompij.hpp"

namespace jhpc::ombj {

// --- Point-to-point (first two ranks; others idle at the barrier) ---------
template <typename EnvT>
std::vector<ResultRow> run_latency(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_bandwidth(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_bibandwidth(EnvT& env, const BenchOptions& opt);
/// osu_mbw_mr: all ranks pair up (i <-> i + size/2); aggregate MB/s.
template <typename EnvT>
std::vector<ResultRow> run_multi_bandwidth(EnvT& env,
                                           const BenchOptions& opt);
/// osu_multi_lat: all pairs ping-pong simultaneously; average latency.
template <typename EnvT>
std::vector<ResultRow> run_multi_latency(EnvT& env, const BenchOptions& opt);

// --- Blocking collectives (latency, averaged over ranks) -------------------
template <typename EnvT>
std::vector<ResultRow> run_bcast(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_reduce(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_allreduce(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_reduce_scatter(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_scan(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_gather(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_scatter(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_allgather(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_alltoall(EnvT& env, const BenchOptions& opt);

// --- Vectored blocking collectives ------------------------------------------
template <typename EnvT>
std::vector<ResultRow> run_gatherv(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_scatterv(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_allgatherv(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_alltoallv(EnvT& env, const BenchOptions& opt);

/// osu_barrier: one row (size 0, average barrier latency in us).
template <typename EnvT>
std::vector<ResultRow> run_barrier(EnvT& env, const BenchOptions& opt);

// --- Nonblocking collectives (osu_ibcast / osu_iallreduce) ------------------
// Rows carry both the pure (no-compute) latency in us and the measured
// communication/computation overlap percentage: per size, the pure
// init+wait latency t_pure is measured first, a dummy compute loop is
// calibrated to t_pure, and the overlapped pass times init;compute;wait
// as t_total, giving overlap = 100 * (1 - (t_total - t_compute)/t_pure).
template <typename EnvT>
std::vector<ResultRow> run_ibcast(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_iallreduce(EnvT& env, const BenchOptions& opt);

// --- One-sided (osu_put_latency / osu_get_bw) -------------------------------
// ByteBuffer API only: an array origin would stage a copy, which defeats
// the zero-copy transfer these benchmarks measure. put_latency times one
// passive-target lock/put/unlock round per iteration (unlock forces
// target completion); get_bw streams `window` gets per exclusive epoch.
template <typename EnvT>
std::vector<ResultRow> run_put_latency(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_get_bw(EnvT& env, const BenchOptions& opt);

// --- ULFM resilience mode (--kill-rank) -------------------------------------
// The sweep runs with ERRORS_RETURN on the world communicator while the
// fault plan kills ranks mid-run. Survivors catch RankFailedError /
// CommRevokedError, revoke + shrink, re-agree on the iteration index and
// continue on the shrunk communicator; rank 0 (which must not be killed)
// reports the per-size averages over the iterations that completed.
template <typename EnvT>
std::vector<ResultRow> run_bcast_resilient(EnvT& env, const BenchOptions& opt);
template <typename EnvT>
std::vector<ResultRow> run_allreduce_resilient(EnvT& env,
                                               const BenchOptions& opt);

/// Dispatch by kind.
template <typename EnvT>
std::vector<ResultRow> run_benchmark(BenchKind kind, EnvT& env,
                                     const BenchOptions& opt);

// --- Native (no Java layer) -----------------------------------------------
std::vector<ResultRow> run_latency_native(const minimpi::Comm& world,
                                          const BenchOptions& opt);
std::vector<ResultRow> run_bandwidth_native(const minimpi::Comm& world,
                                            const BenchOptions& opt);
std::vector<ResultRow> run_bcast_native(const minimpi::Comm& world,
                                        const BenchOptions& opt);
std::vector<ResultRow> run_allreduce_native(const minimpi::Comm& world,
                                            const BenchOptions& opt);
std::vector<ResultRow> run_reduce_native(const minimpi::Comm& world,
                                         const BenchOptions& opt);
std::vector<ResultRow> run_gather_native(const minimpi::Comm& world,
                                         const BenchOptions& opt);
std::vector<ResultRow> run_scatter_native(const minimpi::Comm& world,
                                          const BenchOptions& opt);
std::vector<ResultRow> run_allgather_native(const minimpi::Comm& world,
                                            const BenchOptions& opt);
std::vector<ResultRow> run_alltoall_native(const minimpi::Comm& world,
                                           const BenchOptions& opt);
std::vector<ResultRow> run_bcast_resilient_native(const minimpi::Comm& world,
                                                  const BenchOptions& opt);
std::vector<ResultRow> run_allreduce_resilient_native(
    const minimpi::Comm& world, const BenchOptions& opt);
std::vector<ResultRow> run_ibcast_native(const minimpi::Comm& world,
                                         const BenchOptions& opt);
std::vector<ResultRow> run_iallreduce_native(const minimpi::Comm& world,
                                             const BenchOptions& opt);
std::vector<ResultRow> run_benchmark_native(BenchKind kind,
                                            const minimpi::Comm& world,
                                            const BenchOptions& opt);

}  // namespace jhpc::ombj
