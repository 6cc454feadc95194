#include "jhpc/ompij/ompij.hpp"

namespace jhpc::ompij {

Env::Env(minimpi::Comm& native_world, const RunOptions& options)
    : EnvCore(native_world, options.jvm, nullptr) {}

void run(const RunOptions& options,
         const std::function<void(Env&)>& rank_main) {
  mv2j::detail::launch<Env>(options, rank_main);
}

}  // namespace jhpc::ompij
