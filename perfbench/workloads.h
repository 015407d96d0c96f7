#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "harness/experiment.h"

/// \file workloads.h
/// \brief The benchmark's named workloads. perfbench/README.md records why
/// each exists and which layer it loads; the shapes below are the ones
/// those layer splits were measured at.

namespace deco::perfbench {

struct Workload {
  const char* name;
  Scheme scheme;
  double rate_change;
  uint64_t window;
  /// Events each local produces in one `RunExperiment` call. Every call
  /// pays a bootstrap correction near its start and an end-of-stream one
  /// near its end; 200+ windows per call keep those from dominating the
  /// correction count (and with it bytes/event and the latency tail).
  uint64_t events_per_local;
  /// Leading windows of every call left out of the latency percentiles:
  /// the start-up transient, not the steady state. Deco's first windows
  /// wait on the rate predictor's bootstrap and its correction (~10
  /// windows); Central's latency climbs for ~80 windows while the root's
  /// backlog fills up to the fabric's flow-control limit.
  uint64_t latency_warmup_windows;
  double drop_probability = 0.0;
  int64_t node_timeout_ms = 0;
};

// Common load shape: a closed loop with no pacing (each local generates
// inline and blocks on the fabric's 512-message flow control), tumbling
// count window, sum, root + 2 locals with 4 streams each, batch 8192,
// base rate 1e6 ev/s per local. Two locals keep the 3 actor threads on a
// 4-core host; a third local made corrections and bytes/event swing with
// the scheduler rather than with the program.
inline constexpr size_t kLocals = 2;
inline constexpr size_t kStreamsPerLocal = 4;
inline constexpr size_t kBatch = 8192;
inline constexpr double kBaseRate = 1e6;

inline const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"steady", Scheme::kDecoAsync, 0.01, 100'000, 10'000'000, 16},
      {"churn", Scheme::kDecoAsync, 0.05, 50'000, 5'000'000, 16},
      {"central", Scheme::kCentral, 0.01, 100'000, 10'000'000, 96},
      // 100 windows per call: each dropped message costs a stall, so a
      // longer call would take most of a run.
      {"lossy", Scheme::kDecoSync, 0.05, 50'000, 2'500'000, 16, 0.01, 200},
  };
  return kWorkloads;
}

inline const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

inline ExperimentConfig MakeConfig(const Workload& w, uint64_t seed) {
  ExperimentConfig config;
  config.scheme = w.scheme;
  config.query.window = WindowSpec::CountTumbling(w.window);
  config.query.aggregate = AggregateKind::kSum;
  config.num_locals = kLocals;
  config.streams_per_local = kStreamsPerLocal;
  config.events_per_local = w.events_per_local;
  config.base_rate = kBaseRate;
  config.rate_change = w.rate_change;
  config.batch_size = kBatch;
  config.drop_probability = w.drop_probability;
  config.root_options.node_timeout_nanos = w.node_timeout_ms * kNanosPerMilli;
  config.seed = seed;
  return config;
}

/// \brief A `deco_run` command line that replays `config` (one built by
/// `MakeConfig`) and prints every emitted window.
inline std::string ReproLine(const ExperimentConfig& config) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "deco_run --scheme=%s --locals=%zu --streams=%zu --window=%llu "
      "--agg=sum --events=%llu --batch=%zu --rate=%.0f --change=%.2f "
      "--drop=%.2f --timeout=%lld --seed=%llu --verbose",
      SchemeToString(config.scheme), config.num_locals,
      config.streams_per_local,
      static_cast<unsigned long long>(config.query.window.length),
      static_cast<unsigned long long>(config.events_per_local),
      config.batch_size, config.base_rate, config.rate_change,
      config.drop_probability,
      static_cast<long long>(config.root_options.node_timeout_nanos /
                             kNanosPerMilli),
      static_cast<unsigned long long>(config.seed));
  return buf;
}

}  // namespace deco::perfbench
