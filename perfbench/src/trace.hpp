// Span recorder for the traced benchmark run.
//
// Every call the benchmark makes into a layer's public API is wrapped in
// a Scope: a span with a layer, a call kind, the payload size bucket and
// the collective suite of the Universe it ran on. Spans nest per thread;
// a root span starts an operation and every span beneath it carries the
// root's operation id. Closed spans are folded into per-key aggregates
// (count, inclusive time, self time) from which the per-layer metrics are
// derived, and the first kMaxKeptSpans are kept verbatim so they can be
// written out when the run ends.
//
// Tracing is off unless set_tracing(true) was called: a Scope then costs
// one relaxed load and records nothing.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

namespace pb {

enum class Layer : std::uint8_t {
  kOp,       // the benchmark's timed operation (root span)
  kBench,    // the benchmark's own work: payload fill and verification
  kMv2j,
  kOmpij,
  kMinimpi,
  kMinijvm,
  kMpjbuf,
  kJhpcd,
  kNetsim,
  kCount
};

enum class Call : std::uint8_t {
  kPingpong,
  kStream,
  kColl,
  kSolve,
  kJob,
  kPeer,  // a non-timing rank's share of an operation
  kSend,
  kRecv,
  kIsend,
  kIrecv,
  kWaitAll,
  kBcast,
  kAllreduce,
  kFill,
  kVerify,
  kCompute,
  kEnvNew,
  kArrayCopy,
  kPoolGet,
  kReserve,
  kSubmit,
  kCount
};

const char* layer_name(Layer l);
const char* call_name(Call c);

/// Aggregation key of a span: (layer, call, suite, log2 size bucket).
struct Key {
  Layer layer;
  Call call;
  std::uint8_t suite;   // 0 = mv2 collectives, 1 = basic
  std::uint8_t bucket;  // ceil(log2(bytes)), 0 for size-less calls
  std::uint32_t packed() const {
    return (static_cast<std::uint32_t>(layer) << 24) |
           (static_cast<std::uint32_t>(call) << 16) |
           (static_cast<std::uint32_t>(suite) << 8) | bucket;
  }
  static Key unpack(std::uint32_t k) {
    return Key{static_cast<Layer>(k >> 24), static_cast<Call>((k >> 16) & 0xff),
               static_cast<std::uint8_t>((k >> 8) & 0xff),
               static_cast<std::uint8_t>(k & 0xff)};
  }
};

std::uint8_t size_bucket(std::size_t bytes);

/// Aggregate over all closed spans of one key. Times are corrected for
/// the timer's own cost.
struct Acc {
  std::uint64_t calls = 0;
  std::int64_t dur_ns = 0;   // inclusive
  std::int64_t self_ns = 0;  // minus the children
  double mean_dur() const {
    return calls ? static_cast<double>(dur_ns) / static_cast<double>(calls) : 0;
  }
};

/// One kept span, as written to the span file.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 for a root
  std::uint64_t op = 0;      // id of the root span
  std::uint32_t key = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Totals over every operation tree (root spans of Layer::kOp).
struct OpTotals {
  std::uint64_t ops = 0;
  std::int64_t op_dur_ns = 0;     // sum of root durations
  std::int64_t root_self_ns = 0;  // sum of root self times (unattributed)
  std::int64_t tree_self_ns = 0;  // sum of self times of every span in them
};

/// Median cost of one now_ns() read; subtracted from every span.
double calibrate_timer_ns();

void set_tracing(bool on);
/// Set the timer cost subtracted from span durations (rounded to ns).
void set_timer_cost(double ns);
double timer_cost();

/// Flush the calling thread's spans into the global store. Rank threads
/// flush automatically when they exit; the main thread calls this.
void flush_thread();

/// Merged aggregates of every flushed thread.
std::map<std::uint32_t, Acc> aggregates();
OpTotals op_totals();
/// Kept spans of every flushed thread.
std::vector<Span> kept_spans();
/// Forget everything recorded so far.
void reset_trace();

class Scope {
 public:
  Scope(Layer layer, Call call, std::size_t bytes = 0, int suite = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_ = false;
};

}  // namespace pb
