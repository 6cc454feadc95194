#include "jhpc/mv2j/env.hpp"

namespace jhpc::mv2j {

minimpi::UniverseConfig RunOptionsCore::universe_config(
    Profile profile) const {
  minimpi::UniverseConfig cfg;
  cfg.world_size = ranks;
  cfg.fabric = fabric;
  cfg.eager_limit = eager_limit;
  if (hier_collectives) {
    cfg.suite = minimpi::CollectiveSuite::kHier;
  } else {
    cfg.suite = profile == Profile::kMv2j
                    ? minimpi::CollectiveSuite::kMv2         // "MVAPICH2"
                    : minimpi::CollectiveSuite::kOmpiBasic;  // "Open MPI"
  }
  cfg.apply_suite_profile();
  cfg.obs = obs;
  return cfg;
}

EnvCore::EnvCore(minimpi::Comm& native_world, const minijvm::JvmConfig& jvm,
                 std::unique_ptr<mpjbuf::BufferFactory> pool)
    : pool_(std::move(pool)),
      jvm_(std::make_unique<minijvm::Jvm>(jvm)),
      world_(this, native_world) {
  // Surface this rank's pool stats through the job-wide pvar registry
  // (COMM_WORLD rank == world rank).
  obs::PvarRegistry* reg = native_world.pvars();
  if (pool_ != nullptr && reg != nullptr)
    pool_->bind_pvars(*reg, native_world.rank());
}

EnvCore::~EnvCore() = default;

Env::Env(minimpi::Comm& native_world, const RunOptions& options)
    : EnvCore(native_world, options.jvm,
              std::make_unique<mpjbuf::BufferFactory>(options.pool)) {}

std::int64_t EnvCore::readPvar(const std::string& name) const {
  obs::PvarRegistry* reg = pvars();
  if (reg == nullptr) return 0;
  return reg->read(reg->find(name), world_.native().rank());
}

obs::HistReading EnvCore::readHistogram(const std::string& name) const {
  obs::PvarRegistry* reg = pvars();
  if (reg == nullptr) return {};
  return reg->read_hist(reg->find(name), world_.native().rank());
}

std::int64_t EnvCore::histogramPercentile(const std::string& name,
                                          double p) const {
  return readHistogram(name).percentile(p);
}

void run(const RunOptions& options,
         const std::function<void(Env&)>& rank_main) {
  detail::launch<Env>(options, rank_main);
}

}  // namespace jhpc::mv2j
