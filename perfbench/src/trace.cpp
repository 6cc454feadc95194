#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <unordered_map>

#include "jhpc/support/clock.hpp"

namespace pb {
namespace {

// Verbatim spans kept per traced phase for the span file; aggregates are
// unbounded.
constexpr std::int64_t kMaxKeptSpans = 20000;

std::atomic<bool> g_tracing{false};
std::atomic<std::int64_t> g_timer_ns{0};  // rounded, for span durations
double g_timer_exact_ns = 0;
std::atomic<std::uint64_t> g_thread_seq{0};
std::atomic<std::int64_t> g_kept_budget{kMaxKeptSpans};

struct Store {
  std::mutex mu;
  std::map<std::uint32_t, Acc> acc;
  OpTotals ops;
  std::vector<Span> kept;
};

Store& store() {
  static Store s;
  return s;
}

struct Open {
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t op;
  std::uint32_t key;
  std::int64_t t0;
  std::int64_t child_ns;
  bool op_tree;  // the root of this span's tree is an operation
  std::size_t kept_index;  // SIZE_MAX when not kept
};

class ThreadTrace {
 public:
  ThreadTrace() : seq_(g_thread_seq.fetch_add(1) + 1) {}
  ~ThreadTrace() { flush(); }

  void open(std::uint32_t key) {
    const std::uint64_t id = (seq_ << 32) | ++local_;
    Open o{id, 0, id, key, 0, 0, false, SIZE_MAX};
    if (!stack_.empty()) {
      o.parent = stack_.back().id;
      o.op = stack_.back().op;
      o.op_tree = stack_.back().op_tree;
    } else {
      o.op_tree = Key::unpack(key).layer == Layer::kOp;
      // A whole operation tree is kept or dropped, so kept spans always
      // nest completely; the budget may overrun by one tree per thread.
      keep_tree_ = g_kept_budget.load(std::memory_order_relaxed) > 0;
    }
    if (keep_tree_) {
      g_kept_budget.fetch_sub(1, std::memory_order_relaxed);
      o.kept_index = kept_.size();
      kept_.push_back(Span{o.id, o.parent, o.op, key, 0, 0});
    }
    stack_.push_back(o);
    stack_.back().t0 = jhpc::now_ns();  // last, so set-up is not timed
  }

  void close() {
    const std::int64_t t1 = jhpc::now_ns();
    Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = std::max<std::int64_t>(
        0, t1 - o.t0 - g_timer_ns.load(std::memory_order_relaxed));
    const std::int64_t self = dur - o.child_ns;
    Acc& a = acc_[o.key];
    ++a.calls;
    a.dur_ns += dur;
    a.self_ns += self;
    if (o.op_tree) ops_.tree_self_ns += self;
    if (o.kept_index != SIZE_MAX) {
      kept_[o.kept_index].t0 = o.t0;
      kept_[o.kept_index].t1 = t1;
    }
    if (!stack_.empty()) {
      stack_.back().child_ns += dur;
    } else if (o.op_tree) {
      ++ops_.ops;
      ops_.op_dur_ns += dur;
      ops_.root_self_ns += self;
    }
  }

  void flush() {
    Store& s = store();
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& [k, a] : acc_) {
      Acc& dst = s.acc[k];
      dst.calls += a.calls;
      dst.dur_ns += a.dur_ns;
      dst.self_ns += a.self_ns;
    }
    s.ops.ops += ops_.ops;
    s.ops.op_dur_ns += ops_.op_dur_ns;
    s.ops.root_self_ns += ops_.root_self_ns;
    s.ops.tree_self_ns += ops_.tree_self_ns;
    // Only completed spans are written out.
    for (const Span& sp : kept_) {
      if (sp.t1 != 0) s.kept.push_back(sp);
    }
    acc_.clear();
    ops_ = OpTotals{};
    kept_.clear();
  }

 private:
  std::uint64_t seq_;
  std::uint64_t local_ = 0;
  bool keep_tree_ = false;
  std::vector<Open> stack_;
  std::unordered_map<std::uint32_t, Acc> acc_;
  OpTotals ops_;
  std::vector<Span> kept_;
};

ThreadTrace& tls() {
  thread_local ThreadTrace t;
  return t;
}

}  // namespace

const char* layer_name(Layer l) {
  static const char* const kNames[] = {"op",      "bench",   "mv2j",
                                       "ompij",   "minimpi", "minijvm",
                                       "mpjbuf",  "jhpcd",   "netsim"};
  return kNames[static_cast<int>(l)];
}

const char* call_name(Call c) {
  static const char* const kNames[] = {
      "pingpong", "stream",   "coll",      "solve",  "job",   "peer",
      "send",     "recv",     "isend",     "irecv",  "wait_all",
      "bcast",    "allreduce", "fill",     "verify", "compute", "env_new",
      "array_copy", "pool_get", "reserve_delivery", "submit"};
  return kNames[static_cast<int>(c)];
}

std::uint8_t size_bucket(std::size_t bytes) {
  std::uint8_t b = 0;
  while (b < 63 && (std::size_t{1} << b) < bytes) ++b;
  return b;
}

double calibrate_timer_ns() {
  // Median over batches of the mean cost of back-to-back reads.
  constexpr int kBatch = 1000;
  constexpr int kBatches = 21;
  std::vector<double> d(kBatches);
  for (double& x : d) {
    const std::int64_t a = jhpc::now_ns();
    std::int64_t b = a;
    for (int i = 0; i < kBatch; ++i) b = jhpc::now_ns();
    x = static_cast<double>(b - a) / kBatch;
  }
  std::nth_element(d.begin(), d.begin() + kBatches / 2, d.end());
  return d[kBatches / 2];
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
void set_timer_cost(double ns) {
  g_timer_exact_ns = ns;
  g_timer_ns.store(std::llround(ns));
}
double timer_cost() { return g_timer_exact_ns; }

void flush_thread() { tls().flush(); }

std::map<std::uint32_t, Acc> aggregates() {
  std::lock_guard<std::mutex> lock(store().mu);
  return store().acc;
}

OpTotals op_totals() {
  std::lock_guard<std::mutex> lock(store().mu);
  return store().ops;
}

std::vector<Span> kept_spans() {
  std::lock_guard<std::mutex> lock(store().mu);
  return store().kept;
}

void reset_trace() {
  flush_thread();
  std::lock_guard<std::mutex> lock(store().mu);
  store().acc.clear();
  store().ops = OpTotals{};
  store().kept.clear();
  g_kept_budget.store(kMaxKeptSpans);
}

Scope::Scope(Layer layer, Call call, std::size_t bytes, int suite) {
  if (!g_tracing.load(std::memory_order_relaxed)) return;
  active_ = true;
  tls().open(Key{layer, call, static_cast<std::uint8_t>(suite),
                 size_bucket(bytes)}
                 .packed());
}

Scope::~Scope() {
  if (active_) tls().close();
}

}  // namespace pb
