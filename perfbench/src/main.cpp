// perfbench: the repository's wall-clock benchmark.
//
//   perfbench --workload p2p_small|bulk|cg_app|service_churn --seed N
//             --seconds S --trace 0|1 [--record PATH] [--spans PATH]
//
// --trace 0 measures the workload's closed loop on the bindings for S
// seconds with tracing off and reports the end-to-end metrics.
// --trace 1 runs the same loop untraced for S/2 and traced for S/2 (the
// difference is the tracing overhead), runs it again on the native
// series for S/4 (the binding's share of each call), probes each
// layer's public entry points at the workload's sizes, and reports the
// per-layer metrics derived from the spans.
//
// The last line of stdout is one JSON object: correct, attempted,
// failed and the metrics. Lines before it are a human-readable table of
// every metric, including the workload-specific ones.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "jhpc/minijvm/jni.hpp"
#include "jhpc/netsim/fabric.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace pb {
namespace {

namespace netsim = jhpc::netsim;

// Set-up is short (a Universe, its rank threads, a JVM and a pool per
// rank) and noisy, so it is repeated and the median reported. An untraced
// run measures in segments with set-ups before each, so the median of the
// 1 + kSegments * kSetupsPerSegment set-ups samples the host over the
// whole run, not one instant.
constexpr int kSegments = 5;
constexpr int kSetupsPerSegment = 6;
// Allowed gap between an operation's duration and the sum of the self
// times of every span in it (layers plus unattributed), as a share.
constexpr double kSumTolerance = 0.01;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload p2p_small|bulk|cg_app|service_churn"
               " --seed N --seconds S --trace 0|1 [--record PATH] [--spans PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v) != 0;
      else if (k == "--record") a.record = v;
      else if (k == "--spans") a.spans = v;
      else usage("unknown argument " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) usage("--seconds must be in (0, 600]");
  return a;
}

Workload make_workload(const Args& a) {
  if (a.workload == "p2p_small") return make_p2p_small(a);
  if (a.workload == "bulk") return make_bulk(a);
  if (a.workload == "cg_app") return make_cg_app(a);
  if (a.workload == "service_churn") return make_service_churn(a);
  usage("unknown workload " + a.workload);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Layer probes (traced runs) ---------------------------------------------

/// Median cost of one thread_cpu_ns() read.
double vclock_read_ns() {
  constexpr int kBatch = 200;
  std::vector<double> v;
  for (int b = 0; b < 51; ++b) {
    const std::int64_t t0 = jhpc::now_ns();
    for (int i = 0; i < kBatch; ++i) jhpc::thread_cpu_ns();
    const std::int64_t t1 = jhpc::now_ns();
    v.push_back(static_cast<double>(t1 - t0) / kBatch);
  }
  return median(v);
}

constexpr int kReserveBatch = 256;

/// Spans around the public entry points of minijvm, mpjbuf and netsim
/// at the workload's sizes.
void probe_spans(const Workload& w) {
  minijvm::JvmConfig jc;
  jc.heap_bytes = 64u << 20;
  minijvm::Jvm jvm(jc);
  mpjbuf::BufferFactory pool{mpjbuf::FactoryConfig{}};
  netsim::Fabric fabric(w.probe_config.world_size, w.probe_config.fabric);
  const int last = w.probe_config.world_size - 1;
  for (std::size_t bytes : w.sizes) {
    const int reps = static_cast<int>(
        std::clamp<std::size_t>((64u << 20) / bytes, 8, 2000));
    auto arr = jvm.new_array<minijvm::jdouble>(bytes / 8);
    for (int r = 0; r < reps; ++r) {
      Scope s(Layer::kMinijvm, Call::kArrayCopy, bytes);
      minijvm::jdouble* e = jvm.jni().get_array_elements(arr);
      jvm.jni().release_array_elements(arr, e);
    }
    for (int r = 0; r < reps; ++r) {
      Scope s(Layer::kMpjbuf, Call::kPoolGet, bytes);
      mpjbuf::Buffer b = pool.get(bytes);
      b.free();
    }
    std::int64_t t = 0;
    for (int r = 0; r < 200; ++r) {
      Scope s(Layer::kNetsim, Call::kReserve, bytes);
      for (int i = 0; i < kReserveBatch; ++i)
        t = fabric.reserve_delivery(t, 0, last, bytes);
    }
  }
}

struct UniverseProbe {
  double new_us = 0;
  double spawn_us = 0;
};

UniverseProbe probe_universe(const minimpi::UniverseConfig& cfg) {
  UniverseProbe p;
  std::vector<double> news, spawns;
  for (int r = 0; r < 11; ++r) {
    const std::int64_t t0 = jhpc::now_ns();
    minimpi::Universe uni(cfg);
    const std::int64_t t1 = jhpc::now_ns();
    news.push_back(static_cast<double>(t1 - t0) / 1e3);
    for (int k = 0; k < 5; ++k) {
      const std::int64_t s0 = jhpc::now_ns();
      uni.run([](minimpi::Comm&) {});
      spawns.push_back(static_cast<double>(jhpc::now_ns() - s0) / 1e3);
    }
  }
  p.new_us = median(news);
  p.spawn_us = median(spawns);
  return p;
}

bool is_binding(Layer l) { return l == Layer::kMv2j || l == Layer::kOmpij; }

/// Calls that return without waiting for a peer: posts of nonblocking
/// operations and eager sends. Their time is the library's own path, so
/// binding minus native isolates the crossing and staging cost; blocking
/// receives, waits and collectives mostly measure the peer.
bool local_call(const Key& k) {
  return k.call == Call::kIsend || k.call == Call::kIrecv ||
         (k.call == Call::kSend && k.bucket <= 14);  // <= 16 KiB: eager
}

/// Binding call minus the same call (kind, suite, size bucket) on the
/// native library, weighted by the binding's call counts (Figure 11's
/// quantity, per call, in wall time).
double binding_overhead_ns(const TraceData& td) {
  double weighted = 0;
  double calls = 0;
  for (const auto& [k, a] : td.traced) {
    const Key key = Key::unpack(k);
    if (!is_binding(key.layer) || !local_call(key)) continue;
    Key nk = key;
    nk.layer = Layer::kMinimpi;
    const auto it = td.native.find(nk.packed());
    if (it == td.native.end()) continue;
    weighted += static_cast<double>(a.calls) * (a.mean_dur() - it->second.mean_dur());
    calls += static_cast<double>(a.calls);
  }
  return calls > 0 ? weighted / calls : std::nan("");
}

double ratio(double num, double den) {
  return den > 0 ? num / den : std::nan("");
}

// --- Output -------------------------------------------------------------------

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  bool first = true;
  for (const Metric& m : ms) {
    if (!std::isfinite(m.value)) continue;
    if (!first) s += ", ";
    first = false;
    s += "\"" + m.name + "\": {\"value\": " + fmt(m.value) + ", \"unit\": \"" +
         m.unit + "\"}";
  }
  return s + "}";
}

void print_table(const std::string& title, const std::vector<Metric>& ms) {
  std::printf("# %s\n", title.c_str());
  for (const Metric& m : ms) {
    if (std::isfinite(m.value)) {
      std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("  %-34s %16s %s\n", m.name.c_str(), "n/a", m.unit.c_str());
    }
  }
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "{\"timer_ns\": " << std::llround(timer_cost()) << ", \"layers\": [";
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l)
    f << (l ? ", " : "") << "\"" << layer_name(static_cast<Layer>(l)) << "\"";
  f << "], \"calls\": [";
  for (int c = 0; c < static_cast<int>(Call::kCount); ++c)
    f << (c ? ", " : "") << "\"" << call_name(static_cast<Call>(c)) << "\"";
  f << "], \"tolerance\": " << kSumTolerance << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const Key k = Key::unpack(s.key);
    f << (i ? ",\n" : "") << "[" << s.id << ", " << s.parent << ", " << s.op
      << ", " << static_cast<int>(k.layer) << ", " << static_cast<int>(k.call)
      << ", " << static_cast<int>(k.suite) << ", " << static_cast<int>(k.bucket)
      << ", " << s.t0 << ", " << s.t1 << "]";
  }
  f << "\n]}\n";
}

struct Outcome {
  std::vector<Metric> contract;  // the JSON line's metrics
  std::vector<Metric> table;     // everything, for the table and record
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string problem;           // a benchmark self-check that failed
};

/// The gated end-to-end metrics (BENCHMARK.json end_to_end). The tail
/// (op_p90_us) is printed but not gated: its run-to-run spread on a
/// shared host is wider than any bound the comparison allows.
std::vector<Metric> end_to_end(const Phase& ph, double setup_s) {
  return {
      {"op_p50_us", ph.op_p50_typical() / 1e3, "us"},
      {"ops_per_s", ph.rate_per_s(), "1/s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mib", peak_rss_mib(), "MiB"},
  };
}

Outcome run(const Args& args) {
  Outcome out;
  set_timer_cost(calibrate_timer_ns());
  Workload w = make_workload(args);

  Phase u;
  if (!args.trace) {
    std::vector<double> setups;
    auto set_up = [&](int reps) {
      for (int r = 0; r < reps; ++r)
        setups.push_back(w.setup_once(static_cast<int>(setups.size())));
    };
    set_up(1);
    w.prepare();
    for (int s = 0; s < kSegments; ++s) {
      set_up(kSetupsPerSegment);
      w.measure(args.seconds / kSegments, false, static_cast<std::uint64_t>(s), u);
    }
    const double setup_s = median(setups);
    out.attempted = u.attempted;
    out.failed = u.failed;
    out.contract = end_to_end(u, setup_s);
    out.table = w.named_metrics(u);
    out.table.push_back({"error_ratio", ratio(static_cast<double>(u.failed),
                                              static_cast<double>(u.attempted)),
                         "ratio"});
    for (const Metric& m : out.contract) out.table.push_back(m);
    out.table.push_back({"op_p90_us", u.op_percentile(90) / 1e3, "us"});
    out.table.push_back({"op_samples", static_cast<double>(u.op_samples()), "count"});
    // Tracing stayed off: the span file is written, and empty.
    flush_thread();
    if (!args.spans.empty()) write_spans(args.spans, kept_spans());
    return out;
  }

  // Traced run: untraced half, traced half, native series, probes.
  w.prepare();
  w.measure(args.seconds / 2, false, 0, u);
  TraceData td;
  Phase t, n;
  std::vector<Span> spans;
  reset_trace();
  set_tracing(true);
  w.measure(args.seconds / 2, false, 1, t);
  set_tracing(false);
  flush_thread();
  td.traced = aggregates();
  const OpTotals ops = op_totals();
  spans = kept_spans();

  reset_trace();
  set_tracing(true);
  w.measure(args.seconds / 4, true, 2, n);
  set_tracing(false);
  flush_thread();
  td.native = aggregates();
  {
    std::vector<Span> ns = kept_spans();
    spans.insert(spans.end(), ns.begin(), ns.end());
  }

  reset_trace();
  set_tracing(true);
  probe_spans(w);
  set_tracing(false);
  flush_thread();
  td.probes = aggregates();
  const UniverseProbe up = probe_universe(w.probe_config);
  const double vread = vclock_read_ns();

  for (const Phase* p : {&u, &t, &n}) {
    out.attempted += p->attempted;
    out.failed += p->failed;
  }

  auto on = [](Layer l, Call c) {
    return [l, c](const Key& k) { return k.layer == l && k.call == c; };
  };
  auto native_call = [](std::initializer_list<Call> calls, int min_bucket = 0,
                        int max_bucket = 64) {
    return [calls, min_bucket, max_bucket](const Key& k) {
      if (k.layer != Layer::kMinimpi) return false;
      if (k.bucket < min_bucket || k.bucket > max_bucket) return false;
      for (Call c : calls)
        if (k.call == c) return true;
      return false;
    };
  };
  auto layer_calls = [](Layer l) {
    return [l](const Key& k) { return k.layer == l && k.call != Call::kEnvNew; };
  };
  const double jvm_ops = static_cast<double>(u.jvm_ops);
  const double op_dur = static_cast<double>(ops.op_dur_ns);
  out.contract = {
      {"minijvm.array_copy_ns", mean_ns(td.probes, on(Layer::kMinijvm, Call::kArrayCopy)), "ns"},
      {"minijvm.gc_per_kop", ratio(static_cast<double>(u.gc_collections) * 1e3, jvm_ops), "1/kop"},
      {"minijvm.alloc_bytes_per_op", ratio(static_cast<double>(u.gc_alloc_bytes), jvm_ops), "B/op"},
      {"mpjbuf.get_ns", mean_ns(td.probes, on(Layer::kMpjbuf, Call::kPoolGet)), "ns"},
      {"mpjbuf.hit_ratio", ratio(static_cast<double>(u.pool_hits),
                                 static_cast<double>(u.pool_requests)), "ratio"},
      {"mv2j.call_ns", mean_ns(td.traced, layer_calls(Layer::kMv2j)), "ns"},
      {"ompij.call_ns", mean_ns(td.traced, layer_calls(Layer::kOmpij)), "ns"},
      {"binding.overhead_ns", binding_overhead_ns(td), "ns"},
      {"minimpi.send_ns", mean_ns(td.native, native_call({Call::kSend, Call::kIsend})), "ns"},
      {"minimpi.recv_ns", mean_ns(td.native, native_call({Call::kRecv, Call::kIrecv})), "ns"},
      {"minimpi.wait_ns", mean_ns(td.native, native_call({Call::kWaitAll})), "ns"},
      {"rank.cpu_share", ratio(u.rank_cpu_ns, u.rank_wall_ns), "ratio"},
      {"rank.idle_ns_per_op", ratio(u.rank_wall_ns - u.rank_cpu_ns,
                                    static_cast<double>(u.rank_ops)), "ns"},
      {"minimpi.universe_new_us", up.new_us, "us"},
      {"minimpi.run_spawn_us", up.spawn_us, "us"},
      {"vclock.read_ns", vread, "ns"},
      {"netsim.reserve_ns", mean_ns(td.probes, on(Layer::kNetsim, Call::kReserve)) /
                                kReserveBatch, "ns"},
      {"bench.timer_ns", timer_cost(), "ns"},
      {"layers.unattributed_ns", ratio(static_cast<double>(ops.root_self_ns),
                                       static_cast<double>(ops.ops)), "ns"},
      {"trace.overhead_ratio", t.op_p50_typical() / u.op_p50_typical() - 1, "ratio"},
  };
  for (const Metric& m : out.contract) {
    if (!std::isfinite(m.value)) out.problem += " " + m.name + " not measured;";
  }

  const double sum_error =
      op_dur > 0 ? std::fabs(static_cast<double>(ops.tree_self_ns) - op_dur) / op_dur
                 : std::nan("");
  if (!(sum_error <= kSumTolerance))
    out.problem += " layers do not add up to the operation time;";

  out.table = out.contract;
  const std::vector<Metric> extra = {
      {"minimpi.rndv_send_ns", mean_ns(td.native, native_call({Call::kSend, Call::kIsend}, 15)), "ns"},
      {"minimpi.slab_hit_ratio", ratio(static_cast<double>(u.slab_hits),
                                       static_cast<double>(u.slab_hits + u.slab_misses)), "ratio"},
      {"minimpi.coll.allreduce_small_ns",
       mean_ns(td.native, native_call({Call::kAllreduce}, 0, 3)), "ns"},
      {"minimpi.coll.bcast_large_us",
       mean_ns(td.native, native_call({Call::kBcast}, 20)) / 1e3, "us"},
      {"minimpi.coll.allreduce_large_us",
       mean_ns(td.native, native_call({Call::kAllreduce}, 20)) / 1e3, "us"},
      {"layers.sum_error", sum_error, "ratio"},
      {"layers.sum_tolerance", kSumTolerance, "ratio"},
      {"trace.ops", static_cast<double>(ops.ops), "count"},
      {"trace.spans_kept", static_cast<double>(spans.size()), "count"},
  };
  out.table.insert(out.table.end(), extra.begin(), extra.end());
  const std::vector<Metric> named = w.named_layers(u, td);
  out.table.insert(out.table.end(), named.begin(), named.end());

  if (!args.spans.empty()) write_spans(args.spans, spans);
  return out;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  const pb::Args args = pb::parse(argc, argv);
  pb::Outcome out;
  try {
    out = pb::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
    out.problem = e.what();
    out.attempted = std::max<std::uint64_t>(out.attempted, 1);
    out.failed = std::max<std::uint64_t>(out.failed, 1);
  }
  const bool correct = out.failed == 0 && out.problem.empty();
  if (!out.problem.empty()) std::cerr << "perfbench: problem:" << out.problem << "\n";

  std::ostringstream title;
  title << "perfbench " << args.workload << " seed=" << args.seed
        << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
        << " build=" << PERFBENCH_BUILD_TYPE << " compiler=" << PERFBENCH_COMPILER;
  pb::print_table(title.str(), out.table);

  const std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(out.attempted) +
                           ", \"failed\": " + std::to_string(out.failed) +
                           ", \"metrics\": " + pb::json_metrics(out.contract) + "}";
  if (!args.record.empty()) {
    std::ofstream f(args.record);
    f << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << args.seconds << ", \"trace\": " << (args.trace ? 1 : 0)
      << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \""
      << PERFBENCH_COMPILER << "\", \"all_metrics\": " << pb::json_metrics(out.table)
      << ", \"result\": " << line << "}\n";
  }
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
