// One rank's view of one benchmark series.
//
// The paper's OMB-J series are MVAPICH2-J and Open MPI-J, each with
// direct ByteBuffers or Java arrays; the traced run adds the native
// library underneath (minimpi) as a fifth series, so that the binding's
// share of a call can be taken as binding time minus native time. A Port
// owns the rank's binding environment (JVM, buffer pool) and its payload
// slots, and wraps every call into the library in a span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "jhpc/minijvm/jvm.hpp"
#include "jhpc/minimpi/universe.hpp"
#include "jhpc/mpjbuf/buffer_factory.hpp"

namespace pb {

namespace minijvm = jhpc::minijvm;
namespace minimpi = jhpc::minimpi;
namespace mpjbuf = jhpc::mpjbuf;

enum class Lib : std::uint8_t { kMv2j, kOmpij, kNative };

struct Series {
  Lib lib = Lib::kMv2j;
  bool arrays = false;  // payload slots are Java arrays, not ByteBuffers
};

/// Collective suite index used in span keys: 0 = mv2, 1 = basic.
int suite_index(minimpi::CollectiveSuite s);

/// The Universe configuration of a bindings job: the library's own
/// RunOptions with observability off and no environment overrides.
/// `ppn` <= 0 puts every rank on one virtual node.
minimpi::UniverseConfig universe_config(Lib lib, int ranks, int ppn);

enum class SlotKind : std::uint8_t { kBuffer, kArray };

class Port {
 public:
  virtual ~Port() = default;

  /// A payload slot of `bytes` bytes (a multiple of 8, carried as
  /// doubles). The native series ignores `kind`.
  virtual int add_slot(std::size_t bytes, SlotKind kind) = 0;
  /// Current address of a slot's storage (a Java array's address is
  /// only valid until the next heap allocation).
  virtual std::byte* data(int slot) = 0;

  virtual void send(int slot, std::size_t bytes, int dst, int tag) = 0;
  virtual void recv(int slot, std::size_t bytes, int src, int tag) = 0;
  virtual void isend(int slot, std::size_t bytes, int dst, int tag) = 0;
  virtual void irecv(int slot, std::size_t bytes, int src, int tag) = 0;
  /// Complete every request posted since the last wait_all.
  virtual void wait_all() = 0;
  virtual void bcast(int slot, std::size_t bytes, int root) = 0;
  /// Element-wise double sum of `in` into `out` across the communicator.
  virtual void allreduce_sum(int in, int out, std::size_t bytes) = 0;

  /// The rank's JVM, or null for the native series.
  virtual minijvm::Jvm* jvm() = 0;
  /// The rank's mpjbuf pool (MVAPICH2-J only), or null.
  virtual mpjbuf::BufferFactory* pool() = 0;

  const minimpi::Comm& world() const { return world_; }
  int rank() const { return world_.rank(); }
  int size() const { return world_.size(); }

 protected:
  explicit Port(minimpi::Comm& world) : world_(world) {}
  minimpi::Comm& world_;
};

struct PortOptions {
  /// Managed heap per rank JVM.
  std::size_t heap_bytes = 64u << 20;
};

/// Build the rank's port; the binding environment is constructed inside
/// an env_new span.
std::unique_ptr<Port> make_port(Series s, minimpi::Comm& world,
                                const PortOptions& opts = {});

// --- Payload patterns -------------------------------------------------------
// Word i of a payload stamped `stamp` is stamp ^ (i * kPatternStep): cheap
// to write and check, and different for every stamp.

void fill_pattern(std::byte* p, std::size_t bytes, std::uint64_t stamp);
bool check_pattern(const std::byte* p, std::size_t bytes, std::uint64_t stamp);

/// Exact-integer doubles for reductions: element i of rank r is
/// reduce_value(stamp, i) + r, so the sum over n ranks is
/// n * reduce_value(stamp, i) + n(n-1)/2 with no rounding.
double reduce_value(std::uint64_t stamp, std::size_t i);

std::uint64_t mix64(std::uint64_t x);

}  // namespace pb
