#include "port.hpp"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "jhpc/mv2j/env.hpp"
#include "jhpc/ompij/ompij.hpp"
#include "trace.hpp"

namespace pb {
namespace {

namespace mv2j = jhpc::mv2j;
namespace obs = jhpc::obs;
namespace ompij = jhpc::ompij;

constexpr std::uint64_t kPatternStep = 0x9E3779B97F4A7C15ull;

int count_of(std::size_t bytes) {
  if (bytes % 8 != 0) throw std::invalid_argument("payload not a multiple of 8");
  return static_cast<int>(bytes / 8);
}

mv2j::RunOptions mv2j_options(int ranks, int ppn, std::size_t heap_bytes) {
  mv2j::RunOptions o;
  o.ranks = ranks;
  o.fabric.ranks_per_node = ppn;
  o.jvm = minijvm::JvmConfig{};
  o.jvm.heap_bytes = heap_bytes;
  o.pool = mpjbuf::FactoryConfig{};
  o.obs = obs::ObsConfig{};
  return o;
}

ompij::RunOptions ompij_options(int ranks, int ppn, std::size_t heap_bytes) {
  ompij::RunOptions o;
  o.ranks = ranks;
  o.fabric.ranks_per_node = ppn;
  o.jvm = minijvm::JvmConfig{};
  o.jvm.heap_bytes = heap_bytes;
  o.obs = obs::ObsConfig{};
  return o;
}

/// MVAPICH2-J and Open MPI-J expose the same Java API, so one template
/// drives both.
template <class Env, class Options>
class BindingPort final : public Port {
 public:
  BindingPort(Layer layer, minimpi::Comm& world, const Options& options)
      : Port(world), layer_(layer), suite_(suite_index(world.suite())) {
    Scope s(layer_, Call::kEnvNew, 0, suite_);
    env_ = std::make_unique<Env>(world, options);
  }

  int add_slot(std::size_t bytes, SlotKind kind) override {
    Slot s;
    s.kind = kind;
    if (kind == SlotKind::kBuffer) {
      s.buf = env_->newDirectBuffer(bytes);
    } else {
      s.arr = env_->template newArray<minijvm::jdouble>(bytes / 8);
    }
    slots_.push_back(std::move(s));
    return static_cast<int>(slots_.size()) - 1;
  }

  std::byte* data(int slot) override {
    Slot& s = slots_[static_cast<std::size_t>(slot)];
    return s.kind == SlotKind::kBuffer ? s.buf.storage_address(0)
                                       : s.arr.raw_address();
  }

  void send(int slot, std::size_t bytes, int dst, int tag) override {
    Scope sc(layer_, Call::kSend, bytes, suite_);
    Slot& s = at(slot);
    if (s.kind == SlotKind::kBuffer) {
      comm().send(s.buf, count_of(bytes), mv2j::DOUBLE, dst, tag);
    } else {
      comm().send(s.arr, count_of(bytes), mv2j::DOUBLE, dst, tag);
    }
  }

  void recv(int slot, std::size_t bytes, int src, int tag) override {
    Scope sc(layer_, Call::kRecv, bytes, suite_);
    Slot& s = at(slot);
    const mv2j::Status st =
        s.kind == SlotKind::kBuffer
            ? comm().recv(s.buf, count_of(bytes), mv2j::DOUBLE, src, tag)
            : comm().recv(s.arr, count_of(bytes), mv2j::DOUBLE, src, tag);
    if (st.bytes() != bytes) throw std::runtime_error("short receive");
  }

  void isend(int slot, std::size_t bytes, int dst, int tag) override {
    Scope sc(layer_, Call::kIsend, bytes, suite_);
    Slot& s = at(slot);
    reqs_.push_back(
        s.kind == SlotKind::kBuffer
            ? comm().iSend(s.buf, count_of(bytes), mv2j::DOUBLE, dst, tag)
            : comm().iSend(s.arr, count_of(bytes), mv2j::DOUBLE, dst, tag));
  }

  void irecv(int slot, std::size_t bytes, int src, int tag) override {
    Scope sc(layer_, Call::kIrecv, bytes, suite_);
    Slot& s = at(slot);
    reqs_.push_back(
        s.kind == SlotKind::kBuffer
            ? comm().iRecv(s.buf, count_of(bytes), mv2j::DOUBLE, src, tag)
            : comm().iRecv(s.arr, count_of(bytes), mv2j::DOUBLE, src, tag));
  }

  void wait_all() override {
    Scope sc(layer_, Call::kWaitAll, 0, suite_);
    mv2j::Request::waitAll(reqs_);
    reqs_.clear();
  }

  void bcast(int slot, std::size_t bytes, int root) override {
    Scope sc(layer_, Call::kBcast, bytes, suite_);
    Slot& s = at(slot);
    if (s.kind == SlotKind::kBuffer) {
      comm().bcast(s.buf, count_of(bytes), mv2j::DOUBLE, root);
    } else {
      comm().bcast(s.arr, count_of(bytes), mv2j::DOUBLE, root);
    }
  }

  void allreduce_sum(int in, int out, std::size_t bytes) override {
    Scope sc(layer_, Call::kAllreduce, bytes, suite_);
    Slot& a = at(in);
    Slot& b = at(out);
    if (a.kind != b.kind) throw std::invalid_argument("mixed slot kinds");
    if (a.kind == SlotKind::kBuffer) {
      comm().allReduce(a.buf, b.buf, count_of(bytes), mv2j::DOUBLE, mv2j::SUM);
    } else {
      comm().allReduce(a.arr, b.arr, count_of(bytes), mv2j::DOUBLE, mv2j::SUM);
    }
  }

  minijvm::Jvm* jvm() override { return &env_->jvm(); }

  mpjbuf::BufferFactory* pool() override {
    if constexpr (requires(Env& e) { e.pool(); }) {
      return &env_->pool();
    } else {
      return nullptr;
    }
  }

 private:
  struct Slot {
    SlotKind kind = SlotKind::kBuffer;
    minijvm::ByteBuffer buf;
    minijvm::JArray<minijvm::jdouble> arr;
  };

  Slot& at(int slot) { return slots_[static_cast<std::size_t>(slot)]; }
  auto& comm() { return env_->COMM_WORLD(); }

  Layer layer_;
  int suite_;
  std::unique_ptr<Env> env_;
  std::vector<Slot> slots_;
  std::vector<mv2j::Request> reqs_;
};

class NativePort final : public Port {
 public:
  explicit NativePort(minimpi::Comm& world)
      : Port(world), suite_(suite_index(world.suite())) {}

  int add_slot(std::size_t bytes, SlotKind) override {
    slots_.emplace_back(bytes / 8);
    return static_cast<int>(slots_.size()) - 1;
  }

  std::byte* data(int slot) override {
    return reinterpret_cast<std::byte*>(
        slots_[static_cast<std::size_t>(slot)].data());
  }

  void send(int slot, std::size_t bytes, int dst, int tag) override {
    Scope sc(Layer::kMinimpi, Call::kSend, bytes, suite_);
    world_.send(data(slot), bytes, dst, tag);
  }

  void recv(int slot, std::size_t bytes, int src, int tag) override {
    Scope sc(Layer::kMinimpi, Call::kRecv, bytes, suite_);
    minimpi::Status st;
    world_.recv(data(slot), bytes, src, tag, &st);
    if (st.count_bytes != bytes) throw std::runtime_error("short receive");
  }

  void isend(int slot, std::size_t bytes, int dst, int tag) override {
    Scope sc(Layer::kMinimpi, Call::kIsend, bytes, suite_);
    reqs_.push_back(world_.isend(data(slot), bytes, dst, tag));
  }

  void irecv(int slot, std::size_t bytes, int src, int tag) override {
    Scope sc(Layer::kMinimpi, Call::kIrecv, bytes, suite_);
    reqs_.push_back(world_.irecv(data(slot), bytes, src, tag));
  }

  void wait_all() override {
    Scope sc(Layer::kMinimpi, Call::kWaitAll, 0, suite_);
    minimpi::Request::wait_all(reqs_);
    reqs_.clear();
  }

  void bcast(int slot, std::size_t bytes, int root) override {
    Scope sc(Layer::kMinimpi, Call::kBcast, bytes, suite_);
    world_.bcast(data(slot), bytes, root);
  }

  void allreduce_sum(int in, int out, std::size_t bytes) override {
    Scope sc(Layer::kMinimpi, Call::kAllreduce, bytes, suite_);
    world_.allreduce(data(in), data(out), bytes / 8,
                     minimpi::BasicKind::kDouble, minimpi::ReduceOp::kSum);
  }

  minijvm::Jvm* jvm() override { return nullptr; }
  mpjbuf::BufferFactory* pool() override { return nullptr; }

 private:
  int suite_;
  std::vector<std::vector<double>> slots_;
  std::vector<minimpi::Request> reqs_;
};

}  // namespace

int suite_index(minimpi::CollectiveSuite s) {
  return s == minimpi::CollectiveSuite::kOmpiBasic ? 1 : 0;
}

minimpi::UniverseConfig universe_config(Lib lib, int ranks, int ppn) {
  // The native series runs on either suite's Universe; callers pick the
  // suite through the binding whose native library it stands for.
  return lib == Lib::kOmpij ? ompij_options(ranks, ppn, 0).universe_config()
                            : mv2j_options(ranks, ppn, 0).universe_config();
}

std::unique_ptr<Port> make_port(Series s, minimpi::Comm& world,
                                const PortOptions& opts) {
  const int ranks = world.size();
  switch (s.lib) {
    case Lib::kMv2j:
      return std::make_unique<BindingPort<mv2j::Env, mv2j::RunOptions>>(
          Layer::kMv2j, world, mv2j_options(ranks, 0, opts.heap_bytes));
    case Lib::kOmpij:
      return std::make_unique<BindingPort<ompij::Env, ompij::RunOptions>>(
          Layer::kOmpij, world, ompij_options(ranks, 0, opts.heap_bytes));
    case Lib::kNative:
      break;
  }
  return std::make_unique<NativePort>(world);
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void fill_pattern(std::byte* p, std::size_t bytes, std::uint64_t stamp) {
  for (std::size_t i = 0; i < bytes / 8; ++i) {
    const std::uint64_t w = stamp ^ (i * kPatternStep);
    std::memcpy(p + i * 8, &w, 8);
  }
}

bool check_pattern(const std::byte* p, std::size_t bytes, std::uint64_t stamp) {
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < bytes / 8; ++i) {
    std::uint64_t w;
    std::memcpy(&w, p + i * 8, 8);
    bad |= w ^ (stamp ^ (i * kPatternStep));
  }
  return bad == 0;
}

double reduce_value(std::uint64_t stamp, std::size_t i) {
  return static_cast<double>(((stamp ^ (i * kPatternStep)) >> 44) & 0xFFFF);
}

}  // namespace pb
