// The repository benchmark: runs one named workload for one seed, checks
// every emitted window against the single-threaded oracle, and prints
// every metric by name with its unit. The last stdout line is one JSON
// object {correct, attempted, failed, metrics}.
//
//   perfbench --workload=steady --seed=1 --seconds=10 --trace=0
//
// --trace=0 reports the end-to-end metrics from untraced runs; --trace=1
// makes a separate traced run and reports the per-layer metrics (see
// perfbench/README.md). perfbench/run.py builds this binary and invokes
// it with the flags above.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/logging.h"
#include "event/serde.h"
#include "harness/experiment.h"
#include "node/protocol.h"
#include "oracle_check.h"
#include "replay.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace deco::perfbench {
namespace {

// A run keeps calling RunExperiment until it has measured `--seconds` and
// pooled enough windows for a p99 with ten windows beyond it; it gives up
// adding calls after this long so the process ends well within 180 s.
constexpr double kMaxLoopSeconds = 110.0;
constexpr size_t kMinWindows = 1000;
constexpr size_t kMinCalls = 5;
// setup_s comes from this many short calls of the workload's configuration
// (two global windows each). A long call's own set-up is dominated by
// tearing down whatever is still in flight, 0.1-20 ms from call to call.
constexpr size_t kSetupProbes = 41;
// ...and is their 10th percentile. On central a probe takes either
// ~0.05 ms or that plus 0.6-1.6 ms in which the calling thread takes
// 1300-1800 page faults (the heap handing memory back and faulting it in
// again); the slow share, 25-75% of probes, varies from run to run, and
// a median flipped between the two modes.
constexpr double kSetupQuantile = 0.10;
// Traced calls in a --trace=1 run; its `kMinCalls` untraced calls are the
// baseline of the tracing overhead.
constexpr size_t kTracedCalls = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string basis;  ///< how the value was taken, for the human lines
};

// ---------------------------------------------------------------------------
// Host and build facts.

struct Facts {
  unsigned nproc = std::thread::hardware_concurrency();
  size_t actor_threads = kLocals + 1;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  int deco_trace = PERFBENCH_DECO_TRACE;
  int deco_profile_alloc = PERFBENCH_DECO_PROFILE_ALLOC;
  std::string sanitizer = PERFBENCH_SANITIZER;
  std::string git_sha;
  std::string source_digest;
#ifdef NDEBUG
  bool ndebug = true;
#else
  bool ndebug = false;
#endif

  std::string Json() const {
    char buf[768];
    std::snprintf(buf, sizeof(buf),
                  "{\"host\": {\"nproc\": %u, \"actor_threads\": %zu, "
                  "\"build_type\": \"%s\", \"ndebug\": %s, \"deco_trace\": %d, "
                  "\"deco_profile_alloc\": %d, \"sanitizer\": \"%s\", "
                  "\"git_sha\": \"%s\", \"source_digest\": \"%s\"}}",
                  nproc, actor_threads, build_type.c_str(),
                  ndebug ? "true" : "false", deco_trace, deco_profile_alloc,
                  sanitizer.c_str(), git_sha.c_str(), source_digest.c_str());
    return buf;
  }
};

// ---------------------------------------------------------------------------
// Process measurements.

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// Restarts the kernel's peak-RSS mark at the current RSS, so the next
// VmHWM reading leaves out the oracle's transient memory.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

// A "Vm...:" line of /proc/self/status, in MB.
double ProcStatusMb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(std::strlen(key))) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// One RunExperiment call, timed, then checked against the oracle.

struct Call {
  RunReport report;
  double setup_s = 0.0;
  double cpu_ns_per_event = 0.0;
};

struct RunState {
  const Workload& workload;
  SpanLog* spans;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Appends the emit latencies of the windows past the call's start-up
// transient.
void AppendSteadyLatenciesMs(const Workload& workload, const RunReport& report,
                             std::vector<double>* out) {
  for (const GlobalWindowRecord& w : report.windows) {
    if (w.window_index >= workload.latency_warmup_windows) {
      out->push_back(w.mean_latency_nanos / 1e6);
    }
  }
}

enum class CallKind { kMeasured, kTraced, kSetupProbe };

const char* CallKindName(CallKind kind) {
  switch (kind) {
    case CallKind::kMeasured:
      return "measured";
    case CallKind::kTraced:
      return "traced";
    case CallKind::kSetupProbe:
      return "probe";
  }
  return "?";
}

Result<Call> RunCall(RunState* state, const OracleCheck& oracle,
                     const ExperimentConfig& config, CallKind kind) {
  Call call;
  const char* label = CallKindName(kind);
  const uint64_t run_id = state->spans->NextRunId();
  {
    ScopedSpan span(state->spans, std::string("run_experiment.") + label,
                    run_id);
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = std::chrono::steady_clock::now();
    auto result = RunExperiment(config);
    const auto t1 = std::chrono::steady_clock::now();
    const double cpu1 = ProcessCpuSeconds();
    DECO_RETURN_NOT_OK(result.status());
    call.report = std::move(*result);
    const double call_s = std::chrono::duration<double>(t1 - t0).count();
    call.setup_s = call_s - call.report.wall_seconds;
    if (call.report.events_processed == 0) {
      return Status::Internal("run processed no events");
    }
    call.cpu_ns_per_event = (cpu1 - cpu0) * 1e9 /
                            static_cast<double>(call.report.events_processed);
  }
  CheckResult check;
  {
    ScopedSpan span(state->spans, "oracle_check", run_id);
    check = oracle.Check(call.report);
  }
  if (kind != CallKind::kSetupProbe) {
    std::vector<double> latencies_ms;
    AppendSteadyLatenciesMs(state->workload, call.report, &latencies_ms);
    std::printf("  call %llu %-8s %7.3f Mev/s %4zu windows %3llu corrections "
                "%7.3f B/ev %7.3f ms setup %6.1f MB run peak %7.2f ms p50 "
                "latency\n",
                static_cast<unsigned long long>(run_id), label,
                call.report.throughput_eps / 1e6, call.report.windows.size(),
                static_cast<unsigned long long>(call.report.correction_steps),
                call.report.BytesPerEvent(), call.setup_s * 1e3,
                ProcStatusMb("VmHWM:"), Median(std::move(latencies_ms)));
  }
  state->attempted += check.oracle_windows;
  state->failed += check.failures.size();
  for (const WindowFailure& f : check.failures) {
    std::printf("FAIL %s seed=%llu call=%llu window=%zu end_ts=%lld: %s\n"
                "  repro: %s\n",
                state->workload.name,
                static_cast<unsigned long long>(config.seed),
                static_cast<unsigned long long>(run_id), f.oracle_window,
                static_cast<long long>(f.end_ts), f.reason.c_str(),
                ReproLine(config).c_str());
  }
  return call;
}

// Untraced calls: at least `kMinCalls`, and until `seconds` of measured
// phase and `min_windows` latency samples are pooled.
Result<std::vector<Call>> MeasuredCalls(RunState* state,
                                        const OracleCheck& oracle,
                                        const ExperimentConfig& config,
                                        double seconds, size_t min_windows) {
  std::vector<Call> calls;
  double measured_s = 0.0;
  std::vector<double> latencies_ms;
  const auto start = std::chrono::steady_clock::now();
  while (calls.size() < kMinCalls || measured_s < seconds ||
         latencies_ms.size() < min_windows) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count() > kMaxLoopSeconds) {
      break;
    }
    DECO_ASSIGN_OR_RETURN(
        Call call, RunCall(state, oracle, config, CallKind::kMeasured));
    measured_s += call.report.wall_seconds;
    AppendSteadyLatenciesMs(state->workload, call.report, &latencies_ms);
    calls.push_back(std::move(call));
  }
  return calls;
}

template <typename F>
std::vector<double> Series(const std::vector<Call>& calls, F f) {
  std::vector<double> out;
  for (const Call& c : calls) out.push_back(f(c));
  return out;
}

// ---------------------------------------------------------------------------
// End-to-end metrics (untraced).

// Set-up time of `kSetupProbes` two-window calls, at `kSetupQuantile`.
Result<double> SetupSeconds(RunState* state, const ExperimentConfig& config) {
  ExperimentConfig probe = config;
  probe.events_per_local = 2 * config.query.window.length / config.num_locals;
  DECO_ASSIGN_OR_RETURN(OracleCheck oracle, OracleCheck::Make(probe));
  std::vector<double> setup_s;
  for (size_t i = 0; i < kSetupProbes; ++i) {
    DECO_ASSIGN_OR_RETURN(
        Call call, RunCall(state, oracle, probe, CallKind::kSetupProbe));
    setup_s.push_back(call.setup_s);
  }
  std::printf("  set-up probes: p10 %.3f ms, median %.3f ms, max %.3f ms\n",
              NearestRank(setup_s, 0.10).value * 1e3,
              Median(setup_s) * 1e3,
              *std::max_element(setup_s.begin(), setup_s.end()) * 1e3);
  return NearestRank(std::move(setup_s), kSetupQuantile).value;
}

std::vector<Metric> EndToEnd(const RunState& state,
                             const std::vector<Call>& calls, double setup_s,
                             double peak_rss_mb, double base_rss_mb) {
  std::vector<Metric> m;
  const std::string pooled =
      "pooled over " + std::to_string(calls.size()) + " calls";
  // Bytes per event are pooled (total bytes over total events): they follow
  // a call's correction count, a small integer, and a median of per-call
  // figures jumps between values.
  double events = 0, wall_s = 0, bytes = 0, cpu_ns = 0;
  for (const Call& c : calls) {
    const double e = static_cast<double>(c.report.events_processed);
    events += e;
    wall_s += c.report.wall_seconds;
    bytes += static_cast<double>(c.report.network.total_bytes);
    cpu_ns += c.cpu_ns_per_event * e;
  }
  // Throughput and CPU are interquartile means of per-call values: a call
  // that ran through a burst of interference from other tenants of the
  // host falls in a dropped tail instead of pulling the whole run. The
  // pooled figure is printed next to it.
  const std::string iqm =
      "interquartile mean of " + std::to_string(calls.size()) + " calls";
  char pooled_tput[64], pooled_cpu[64];
  std::snprintf(pooled_tput, sizeof(pooled_tput), " (pooled %.4g)",
                events / wall_s);
  std::snprintf(pooled_cpu, sizeof(pooled_cpu), " (pooled %.4g)",
                cpu_ns / events);
  m.push_back({"throughput_eps",
               InterquartileMean(Series(
                   calls,
                   [](const Call& c) {
                     return static_cast<double>(c.report.events_processed) /
                            c.report.wall_seconds;
                   })),
               "ev/s",
               iqm + ", events / measured-phase seconds" + pooled_tput});

  // Per-window emit latency: GlobalWindowRecord::mean_latency_nanos, i.e.
  // emit time minus the mean creation time of the window's events. It
  // includes part of the window's own fill time; a last-event stamp would
  // need an in-program change.
  std::vector<double> latencies_ms;
  for (const Call& c : calls) {
    AppendSteadyLatenciesMs(state.workload, c.report, &latencies_ms);
  }
  const Percentile p50 = NearestRank(latencies_ms, 0.50);
  const Percentile p99 = NearestRank(latencies_ms, 0.99);
  const std::string skipped =
      " (first " + std::to_string(state.workload.latency_warmup_windows) +
      " of each call left out)";
  m.push_back({"latency_p50_ms", p50.value, "ms",
               "nearest rank over " + std::to_string(p50.samples) +
                   " windows" + skipped});
  if (p99.supported) {
    m.push_back({"latency_p99_ms", p99.value, "ms",
                 "nearest rank over " + std::to_string(p99.samples) +
                     " windows, " + std::to_string(p99.beyond) + " beyond" +
                     skipped});
  } else {
    std::printf("latency_p99_ms unsupported: %zu windows, %zu beyond p99 "
                "(needs %zu)\n",
                p99.samples, p99.beyond, kMinBeyond);
  }
  m.push_back({"bytes_per_event", bytes / events, "B/ev",
               pooled + ", fabric bytes"});
  m.push_back({"cpu_ns_per_event",
               InterquartileMean(Series(
                   calls, [](const Call& c) { return c.cpu_ns_per_event; })),
               "ns/ev", iqm + ", process user+sys" + pooled_cpu});
  m.push_back({"window_ok_frac",
               1.0 - static_cast<double>(state.failed) /
                         static_cast<double>(state.attempted),
               "frac",
               std::to_string(state.attempted - state.failed) + " of " +
                   std::to_string(state.attempted) + " oracle windows"});
  m.push_back({"setup_s", setup_s, "s",
               "10th percentile of " + std::to_string(kSetupProbes) +
                   " two-window calls, call wall minus measured phase"});
  // The process's peak over the run's calls. What one call adds swings
  // from 0 to 24 MB on steady with how far one local runs ahead, so any
  // per-call figure wandered by 20-40% between runs.
  char base[96];
  std::snprintf(base, sizeof(base),
                ", of which %.1f MB resident before the first call",
                base_rss_mb);
  m.push_back({"peak_rss_mb", peak_rss_mb, "MB",
               "VmHWM over the set-up probes and " +
                   std::to_string(calls.size()) + " calls" + base});
  return m;
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced run).

// Sums over the traced calls of the RunReport counters the layer metrics
// and the ledger are built from.
struct TracedTotals {
  size_t calls = 0;
  double events = 0, generated = 0, windows = 0, corrections = 0;
  double local_cpu = 0, local_wall = 0, local_allocs = 0;
  double root_cpu = 0, root_wall = 0, root_batch_cpu = 0, root_corr_cpu = 0;
  double messages = 0, dropped = 0, root_queue_high_water = 0;
  double local_msgs = 0, root_msgs = 0;
  double prov_rounds = 0, prov_corrected = 0;
  double bytes[kNumMessageTypes] = {};
  double msgs[kNumMessageTypes] = {};

  void Add(const ExperimentConfig& config, const RunReport& r) {
    ++calls;
    events += static_cast<double>(r.events_processed);
    generated +=
        static_cast<double>(config.events_per_local * config.num_locals);
    windows += static_cast<double>(r.windows_emitted);
    corrections += static_cast<double>(r.correction_steps);
    for (const ThreadProfile& t : r.profile.threads) {
      if (t.name == "root") {
        root_cpu += static_cast<double>(t.cpu_nanos);
        root_wall += static_cast<double>(t.wall_nanos);
        for (const HandlerProfile& h : t.handlers) {
          if (h.type == MessageType::kEventBatch) {
            root_batch_cpu += static_cast<double>(h.cpu_nanos);
          } else if (h.type == MessageType::kCorrectionResult) {
            root_corr_cpu += static_cast<double>(h.cpu_nanos);
          }
        }
      } else {
        local_cpu += static_cast<double>(t.cpu_nanos);
        local_wall += static_cast<double>(t.wall_nanos);
        local_allocs += static_cast<double>(t.allocations);
      }
    }
    messages += static_cast<double>(r.network.total_messages);
    dropped += static_cast<double>(r.network.total_dropped);
    for (size_t node = 0; node < r.network.per_node.size(); ++node) {
      const NodeTrafficStats& s = r.network.per_node[node];
      // The harness registers the root first: node 0.
      (node == 0 ? root_msgs : local_msgs) +=
          static_cast<double>(s.messages_sent);
      if (node == 0) {
        root_queue_high_water =
            std::max(root_queue_high_water,
                     static_cast<double>(s.queue_depth_high_water));
      }
      for (size_t t = 0; t < kNumMessageTypes; ++t) {
        bytes[t] += static_cast<double>(s.bytes_sent_by_type[t]);
        msgs[t] += static_cast<double>(s.messages_sent_by_type[t]);
      }
    }
    prov_rounds += static_cast<double>(r.provenance.correction_rounds);
    prov_corrected += static_cast<double>(r.provenance.windows_corrected);
  }

  // Events carried in messages of `type`, from its bytes less each
  // message's fixed part (`empty_payload` = the payload with no events).
  double EventsIn(MessageType type, size_t empty_payload) const {
    const size_t t = static_cast<size_t>(type);
    const double fixed =
        msgs[t] * static_cast<double>(Message::kHeaderBytes + empty_payload);
    return std::max(0.0, bytes[t] - fixed) /
           static_cast<double>(kBinaryEventSize);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

size_t EmptyEventBatchBytes() {
  BinaryWriter writer;
  EncodeEventBatch(EventBatchPayload{}, &writer);
  return writer.size();
}

size_t EmptyCorrectionResponseBytes() {
  BinaryWriter writer;
  EncodeCorrectionResponse(CorrectionResponse{}, &writer);
  return writer.size();
}

Result<std::vector<Metric>> PerLayer(RunState* state,
                                     const OracleCheck& oracle,
                                     const ExperimentConfig& config,
                                     double untraced_tput) {
  ExperimentConfig traced = config;
  traced.profile.enabled = true;
  traced.profile.count_allocs = true;
  traced.provenance.enabled = true;
  traced.provenance.estimate = false;  // the oracle check already does this

  TracedTotals tot;
  std::vector<double> traced_tput;
  for (size_t i = 0; i < kTracedCalls; ++i) {
    DECO_ASSIGN_OR_RETURN(Call call,
                          RunCall(state, oracle, traced, CallKind::kTraced));
    tot.Add(traced, call.report);
    traced_tput.push_back(call.report.throughput_eps);
  }
  const double calls = static_cast<double>(tot.calls);
  const double eb_events =
      tot.EventsIn(MessageType::kEventBatch, EmptyEventBatchBytes());
  const double cr_events =
      tot.EventsIn(MessageType::kCorrectionResult,
                   EmptyCorrectionResponseBytes());

  ReplayShape shape;
  shape.raw_per_node_window = static_cast<size_t>(
      Ratio(eb_events, tot.windows * static_cast<double>(config.num_locals)));
  shape.candidates_per_node = static_cast<size_t>(
      Ratio(cr_events,
            tot.corrections * static_cast<double>(config.num_locals)));
  DECO_ASSIGN_OR_RETURN(LayerCosts cost,
                        ReplayLayers(config, shape, state->spans));

  // Ledger: each replayed cost times its count in the traced calls,
  // against the profiled actor CPU.
  const bool deco = IsDecentralized(config.scheme);
  const double verified = tot.windows - tot.corrections;
  double local_explained = 0, root_explained = 0;
  if (deco) {
    local_explained = cost.gen_ns_per_event * tot.generated +
                      cost.accumulate_ns_per_event *
                          (tot.generated - eb_events) +
                      cost.encode_ns_per_event * (eb_events + cr_events) +
                      cost.hop_ns_per_msg * tot.local_msgs;
    root_explained = cost.decode_ns_per_event * (eb_events + cr_events) +
                     cost.verify_us_per_window * 1e3 * verified +
                     cost.correct_ms_per_window * 1e6 * tot.corrections +
                     cost.hop_ns_per_msg * tot.root_msgs;
  } else {
    local_explained = cost.gen_ns_per_event * tot.generated +
                      cost.encode_ns_per_event * eb_events +
                      cost.hop_ns_per_msg * tot.local_msgs;
    root_explained = (cost.decode_ns_per_event + cost.merge_ns_per_event +
                      cost.window_add_ns_per_event) *
                         eb_events +
                     cost.hop_ns_per_msg * tot.root_msgs;
  }

  auto type_bytes = [&](MessageType t) {
    return Ratio(tot.bytes[static_cast<size_t>(t)], tot.events);
  };
  const std::string traced_basis =
      "sum over " + std::to_string(tot.calls) + " traced calls";
  const std::string replay_basis = "replay, median of timed passes";
  std::vector<Metric> m = {
      {"node.local.busy_frac", Ratio(tot.local_cpu, tot.local_wall), "frac",
       traced_basis},
      {"node.local.cpu_ns_per_event", Ratio(tot.local_cpu, tot.events), "ns/ev",
       traced_basis},
      {"node.local.allocs_per_kevent",
       Ratio(tot.local_allocs * 1e3, tot.events), "allocs/kev", traced_basis},
      {"node.root.busy_frac", Ratio(tot.root_cpu, tot.root_wall), "frac",
       traced_basis},
      {"node.root.cpu_ns_per_event", Ratio(tot.root_cpu, tot.events), "ns/ev",
       traced_basis},
      {"node.root.idle_s", (tot.root_wall - tot.root_cpu) / 1e9 / calls, "s",
       "mean per traced call"},
      {"deco.root.correction_cpu_frac", Ratio(tot.root_corr_cpu, tot.root_cpu),
       "frac", traced_basis},
      {"deco.root.correction_cpu_ms_per_correction",
       Ratio(tot.root_corr_cpu / 1e6, tot.corrections), "ms/corr",
       traced_basis},
      {"deco.corrected_frac", Ratio(tot.corrections, tot.windows), "frac",
       traced_basis},
      {"deco.correction_rounds_per_correction",
       Ratio(tot.prov_rounds, tot.prov_corrected), "rounds/corr",
       traced_basis + ", provenance"},
      {"baseline.root.batch_cpu_ns_per_event",
       Ratio(tot.root_batch_cpu, tot.events), "ns/ev", traced_basis},
      {"net.bytes_per_event.event-batch", type_bytes(MessageType::kEventBatch),
       "B/ev", traced_basis},
      {"net.bytes_per_event.partial-result",
       type_bytes(MessageType::kPartialResult), "B/ev", traced_basis},
      {"net.bytes_per_event.correction-result",
       type_bytes(MessageType::kCorrectionResult), "B/ev", traced_basis},
      {"net.bytes_per_event.correction-request",
       type_bytes(MessageType::kCorrectionRequest), "B/ev", traced_basis},
      {"net.bytes_per_event.window-assignment",
       type_bytes(MessageType::kWindowAssignment), "B/ev", traced_basis},
      {"net.msgs_per_window", Ratio(tot.messages, tot.windows), "msgs/window",
       traced_basis},
      {"net.root_queue_high_water", tot.root_queue_high_water, "msgs",
       "max over traced calls"},
      {"net.dropped_msgs", tot.dropped / calls, "msgs", "mean per traced call"},
      {"stream.gen_ns_per_event", cost.gen_ns_per_event, "ns/ev", replay_basis},
      {"event.encode_ns_per_event", cost.encode_ns_per_event, "ns/ev",
       replay_basis},
      {"event.decode_ns_per_event", cost.decode_ns_per_event, "ns/ev",
       replay_basis},
      {"net.hop_ns_per_msg", cost.hop_ns_per_msg, "ns/msg", replay_basis},
      {"agg.accumulate_ns_per_event", cost.accumulate_ns_per_event, "ns/ev",
       replay_basis},
      {"window.add_ns_per_event", cost.window_add_ns_per_event, "ns/ev",
       replay_basis},
      {"baseline.merge_ns_per_event", cost.merge_ns_per_event, "ns/ev",
       replay_basis},
      {"deco.verify_us_per_window", cost.verify_us_per_window, "us/window",
       replay_basis},
      {"deco.correct_ms_per_window", cost.correct_ms_per_window, "ms/window",
       replay_basis},
      {"ledger.local_explained_frac", Ratio(local_explained, tot.local_cpu),
       "frac", "replayed cost x traced count / profiled local CPU"},
      {"ledger.root_explained_frac", Ratio(root_explained, tot.root_cpu),
       "frac", "replayed cost x traced count / profiled root CPU"},
      {"ledger.local_residual_ms",
       (tot.local_cpu - local_explained) / 1e6 / calls, "ms",
       "unexplained local CPU per traced call"},
      {"ledger.root_residual_ms", (tot.root_cpu - root_explained) / 1e6 / calls,
       "ms", "unexplained root CPU per traced call"},
      {"trace_overhead_frac", 1.0 - Ratio(Median(traced_tput), untraced_tput),
       "frac", "1 - traced/untraced median throughput"},
  };
  return m;
}

// ---------------------------------------------------------------------------

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-44s %16.6g %-12s %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str(), metric.basis.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload=<steady|churn|central|"
               "lossy> --seed=<n> --seconds=<n> --trace=<0|1> "
               "[--out_dir=<dir>] [--git_sha=<sha>] [--source_digest=<hex>]\n",
               error);
  return 2;
}

int Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const Workload* workload = FindWorkload(flags.GetString("workload", ""));
  if (workload == nullptr) return Usage("unknown or missing --workload");
  const int64_t seed = flags.GetInt("seed", 42);
  const double seconds = flags.GetDouble("seconds", 10.0);
  const int64_t trace = flags.GetInt("trace", 0);
  if (seed < 0 || !(seconds > 0) || (trace != 0 && trace != 1)) {
    return Usage("--seed must be >= 0, --seconds > 0, --trace 0 or 1");
  }

  Facts facts;
  facts.git_sha = flags.GetString("git_sha", "unknown");
  facts.source_digest = flags.GetString("source_digest", "unknown");
  if (facts.build_type != "Release" || !facts.ndebug ||
      !facts.sanitizer.empty()) {
    std::fprintf(stderr,
                 "error: refusing to emit numbers from a %s build%s%s "
                 "(need Release, NDEBUG, no sanitizer)\n",
                 facts.build_type.c_str(),
                 facts.sanitizer.empty() ? "" : " with sanitizer ",
                 facts.sanitizer.c_str());
    return 3;
  }
  std::printf("%s\n", facts.Json().c_str());
  SetLogLevel(LogLevel::kError);

  const ExperimentConfig config =
      MakeConfig(*workload, static_cast<uint64_t>(seed));
  SpanLog spans(trace == 1);
  std::printf("perfbench workload=%s seed=%lld trace=%lld\n  repro: %s\n",
              workload->name, static_cast<long long>(seed),
              static_cast<long long>(trace), ReproLine(config).c_str());

  const auto oracle_t0 = std::chrono::steady_clock::now();
  Result<OracleCheck> oracle = [&] {
    ScopedSpan span(&spans, "oracle", spans.NextRunId());
    return OracleCheck::Make(config);
  }();
  if (!oracle.ok()) {
    std::fprintf(stderr, "error: oracle: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }
  std::printf("  oracle: %zu windows in %.2f s (outside every timing)\n",
              oracle->windows(),
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            oracle_t0)
                  .count());

  RunState state{*workload, &spans};
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "error: cannot reset the peak-RSS mark\n");
    return 1;
  }
  const double base_rss_mb = ProcStatusMb("VmRSS:");
  // The set-up probes go first: they also warm the program's code paths,
  // the allocator and thread creation before the measured calls.
  Result<double> setup_s = 0.0;
  if (trace == 0) setup_s = SetupSeconds(&state, config);
  if (!setup_s.ok()) {
    std::fprintf(stderr, "error: set-up probes: %s\n",
                 setup_s.status().ToString().c_str());
    return 1;
  }
  auto calls =
      trace == 0
          ? MeasuredCalls(&state, *oracle, config, seconds, kMinWindows)
          : MeasuredCalls(&state, *oracle, config, 0.0, 0);
  if (!calls.ok()) {
    std::fprintf(stderr, "error: run: %s\n", calls.status().ToString().c_str());
    return 1;
  }
  std::vector<Metric> metrics;
  if (trace == 0) {
    metrics = EndToEnd(state, *calls, *setup_s, ProcStatusMb("VmHWM:"),
                       base_rss_mb);
  } else {
    const double untraced = Median(Series(
        *calls, [](const Call& c) { return c.report.throughput_eps; }));
    auto layers = PerLayer(&state, *oracle, config, untraced);
    if (!layers.ok()) {
      std::fprintf(stderr, "error: traced run: %s\n",
                   layers.status().ToString().c_str());
      return 1;
    }
    metrics = std::move(*layers);
    const std::string out_dir = flags.GetString("out_dir", ".");
    const std::string path = out_dir + "/spans-" + workload->name + "-seed" +
                             std::to_string(seed) + ".json";
    if (!spans.WriteJson(path)) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("  spans: %zu written to %s\n", spans.spans().size(),
                path.c_str());
  }
  PrintResult(state.failed == 0, state.attempted, state.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace deco::perfbench

int main(int argc, char** argv) { return deco::perfbench::Run(argc, argv); }
