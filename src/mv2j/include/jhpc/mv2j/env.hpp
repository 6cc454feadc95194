// The per-rank Java-bindings environment and the job runner.
//
// In the paper's deployment each MPI rank is a JVM process that loads
// Java bindings on top of a native MPI library. Here each rank thread
// owns an Env: its simulated JVM (managed heap + JNI), COMM_WORLD bound to
// the native communicator and, for MVAPICH2-J, its mpjbuf buffer pool.
//
// One binding core serves both Java bindings the paper compares: they
// implement the same Java API, so they are the same Comm and Win classes.
// Which one a rank runs is its Env's profile, set by the namespace that
// launched the job — mv2j::run (this header) or ompij::run
// (jhpc/ompij/ompij.hpp) — and read only where the paper's policies
// differ (see Profile).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "jhpc/minijvm/jni.hpp"
#include "jhpc/minijvm/jvm.hpp"
#include "jhpc/minimpi/universe.hpp"
#include "jhpc/mpjbuf/buffer_factory.hpp"
#include "jhpc/mv2j/comm.hpp"
#include "jhpc/obs/obs.hpp"
#include "jhpc/support/error.hpp"

namespace jhpc::mv2j {

/// Which Java bindings a job runs. The paper's gaps come from these
/// policies, each keyed on the profile:
///
///   * array staging: MVAPICH2-J stages through its pooled mpjbuf buffers
///     (paper Figure 3); Open MPI-J mallocs a region per call, sized by
///     the message, and always copies the array in
///     (Get/Set<Type>ArrayRegion). Without a staging pool Open MPI-J also
///     rejects arrays with iSend/iRecv (UnsupportedOperationError) and
///     derived datatypes on arrays (InvalidArgumentError);
///   * Open MPI-J pays an extra handle_check() on ByteBuffer send/recv and
///     on Win data movement: its per-call object-graph marshalling;
///   * the native collective suite: mv2 ("MVAPICH2") or basic ("Open
///     MPI"), where the paper's 6.2x/2.76x collective gaps come from.
///
/// A rank's Env holds its profile as its staging pool: MVAPICH2-J's Env
/// owns one, Open MPI-J's has none (EnvCore::pool_ is null).
enum class Profile : std::uint8_t { kMv2j, kOmpij };

/// Job-level options both profiles share (the mpirun line plus JVM flags).
struct RunOptionsCore {
  int ranks = 2;
  netsim::FabricConfig fabric{};
  std::size_t eager_limit = 16 * 1024;
  minijvm::JvmConfig jvm = minijvm::JvmConfig::from_env();
  /// Observability switches (JHPC_PVARS / JHPC_TRACE by default).
  obs::ObsConfig obs = obs::ObsConfig::from_env();
  /// Run collectives on the topology-aware hierarchical engine instead
  /// of the profile's own suite (JHPC_COLL=hier equivalent; see
  /// docs/API.md).
  bool hier_collectives = false;

  /// The native universe configuration for `profile`: the profile's
  /// collective suite, unless `hier_collectives` selects the
  /// hierarchical engine.
  minimpi::UniverseConfig universe_config(Profile profile) const;
};

/// MVAPICH2-J job options.
struct RunOptions : RunOptionsCore {
  mpjbuf::FactoryConfig pool = mpjbuf::FactoryConfig::from_env();

  /// Suite kMv2 — these bindings run on "MVAPICH2".
  minimpi::UniverseConfig universe_config() const {
    return RunOptionsCore::universe_config(Profile::kMv2j);
  }
};

/// The per-rank state both profiles share. Constructed only through a
/// profile's Env (mv2j::Env, ompij::Env).
class EnvCore {
 public:
  EnvCore(const EnvCore&) = delete;
  EnvCore& operator=(const EnvCore&) = delete;

  /// MPI.COMM_WORLD.
  Comm& COMM_WORLD() { return world_; }
  minijvm::Jvm& jvm() { return *jvm_; }

  // --- MPI_T-style tool access (the Java side's MPI.T) -------------------
  /// The job's performance-variable registry (values indexed by world
  /// rank), or nullptr when observability is disabled.
  obs::PvarRegistry* pvars() const { return world_.native().pvars(); }
  /// This rank's value of pvar `name`; 0 when unknown or disabled.
  std::int64_t readPvar(const std::string& name) const;
  /// This rank's decoded distribution of histogram pvar `name` (raw
  /// registered units, virtual ns for latency histograms); an empty
  /// reading when unknown, not a histogram, or disabled.
  obs::HistReading readHistogram(const std::string& name) const;
  /// Percentile `p` (0..100) of this rank's histogram `name`; 0 when
  /// empty or unknown.
  std::int64_t histogramPercentile(const std::string& name, double p) const;

  /// Convenience allocators mirroring a Java program's
  /// `ByteBuffer.allocateDirect(...)` / `new T[n]`.
  ByteBuffer newDirectBuffer(std::size_t bytes) {
    return ByteBuffer::allocate_direct(bytes);
  }
  template <JavaPrimitive T>
  JArray<T> newArray(std::size_t n) {
    return jvm_->new_array<T>(n);
  }

 protected:
  EnvCore(minimpi::Comm& native_world, const minijvm::JvmConfig& jvm,
          std::unique_ptr<mpjbuf::BufferFactory> pool);
  ~EnvCore();

  /// The profile: MVAPICH2-J's staging pool, or null for Open MPI-J
  /// (per-call regions, the extra handle check).
  std::unique_ptr<mpjbuf::BufferFactory> pool_;

 private:
  friend class Comm;
  friend class Win;

  /// Entry of a bound call that marshals its argument objects: the JNI
  /// crossing, plus Open MPI-J's extra per-call object-graph walk (a
  /// couple of JNI field accesses — the small but visible gap in the
  /// paper's Figure 11).
  void marshalled_crossing() const {
    minijvm::JniEnv& jni = jvm_->jni();
    jni.crossing();
    if (pool_ == nullptr) jni.handle_check();
  }

  std::unique_ptr<minijvm::Jvm> jvm_;
  Comm world_;
};

/// One MVAPICH2-J rank's environment: the shared core plus the mpjbuf
/// buffer pool its array paths stage through.
class Env : public EnvCore {
 public:
  Env(minimpi::Comm& native_world, const RunOptions& options);

  mpjbuf::BufferFactory& pool() { return *pool_; }
};

/// Launch an MVAPICH2-J job: spin up the native universe, give each rank
/// an Env, run `rank_main` everywhere, join.
void run(const RunOptions& options, const std::function<void(Env&)>& rank_main);

namespace detail {
/// Run `rank_main` on every rank of a job launched from `options`, each
/// rank inside its own EnvT (the body of mv2j::run and ompij::run).
template <class EnvT, class Options>
void launch(const Options& options,
            const std::function<void(EnvT&)>& rank_main) {
  JHPC_REQUIRE(static_cast<bool>(rank_main), "rank_main must be callable");
  minimpi::Universe::launch(options.universe_config(),
                            [&options, &rank_main](minimpi::Comm& world) {
                              EnvT env(world, options);
                              rank_main(env);
                            });
}
}  // namespace detail

}  // namespace jhpc::mv2j
