#include "oracle_check.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "node/stream_set.h"

namespace deco::perfbench {

namespace {

double RelTolerance(double truth) {
  return 1e-6 * std::max(1.0, std::fabs(truth));
}

std::string Describe(const char* what, double got, double want,
                     const char* want_label = "oracle") {
  char buf[192];
  std::snprintf(buf, sizeof(buf), "%s %.17g, %s %.17g", what, got,
                want_label, want);
  return buf;
}

// Prefix sums of each local's event values, one thread per local. The
// running sum is kept in long double so the stored doubles are within one
// rounding of the exact prefix.
std::vector<std::vector<double>> ValuePrefixSums(
    const ExperimentConfig& config) {
  std::vector<std::vector<double>> prefix(config.num_locals);
  std::vector<std::thread> workers;
  for (size_t n = 0; n < config.num_locals; ++n) {
    workers.emplace_back([&config, &prefix, n] {
      StreamSet streams(MakeIngestConfig(config, n).streams);
      std::vector<double>& out = prefix[n];
      out.reserve(config.events_per_local + 1);
      long double sum = 0.0L;
      out.push_back(0.0);
      for (uint64_t k = 0; k < config.events_per_local; ++k) {
        sum += streams.Next().value;
        out.push_back(static_cast<double>(sum));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return prefix;
}

}  // namespace

Result<OracleCheck> OracleCheck::Make(const ExperimentConfig& config) {
  if (config.query.aggregate != AggregateKind::kSum) {
    return Status::NotSupported("the oracle check handles sum queries only");
  }
  DECO_ASSIGN_OR_RETURN(OracleReference oracle,
                        ComputeOracleReference(config));
  if (oracle.windows.empty()) {
    return Status::InvalidArgument("workload produces no oracle window");
  }
  std::vector<std::vector<double>> prefix;
  if (config.scheme == Scheme::kDecoAsync) prefix = ValuePrefixSums(config);
  return OracleCheck(config, std::move(oracle), std::move(prefix));
}

CheckResult OracleCheck::Check(const RunReport& report) const {
  return config_.scheme == Scheme::kDecoAsync ? CheckAsync(report)
                                              : CheckExact(report);
}

CheckResult OracleCheck::CheckExact(const RunReport& report) const {
  CheckResult result;
  result.oracle_windows = oracle_.windows.size();
  const bool has_consumption =
      report.consumption.num_windows() == report.windows.size();
  size_t j = 0;
  for (size_t i = 0; i < oracle_.windows.size(); ++i) {
    const GlobalWindowRecord& want = oracle_.windows[i];
    // Emitted windows ending before this oracle window match none.
    while (j < report.windows.size() &&
           report.windows[j].end_ts < want.end_ts) {
      ++j;
    }
    WindowFailure failure{i, want.end_ts, ""};
    if (j == report.windows.size() || report.windows[j].end_ts != want.end_ts) {
      failure.reason = "missing: no emitted window ends at this end_ts";
    } else {
      const GlobalWindowRecord& got = report.windows[j];
      if (got.event_count != want.event_count) {
        failure.reason =
            Describe("event_count", static_cast<double>(got.event_count),
                     static_cast<double>(want.event_count));
      } else if (std::fabs(got.value - want.value) > RelTolerance(want.value)) {
        failure.reason = Describe("value", got.value, want.value);
      } else if (!has_consumption) {
        failure.reason = "run reported no per-node consumption";
      } else if (report.consumption.window(j) !=
                 oracle_.consumption.window(i)) {
        failure.reason = "per-node consumption differs from the oracle";
      }
      ++j;
    }
    if (!failure.reason.empty()) result.failures.push_back(failure);
  }
  return result;
}

CheckResult OracleCheck::CheckAsync(const RunReport& report) const {
  CheckResult result;
  const size_t n = oracle_.windows.size();
  result.oracle_windows = n;
  auto fail_all = [&](const std::string& reason) {
    result.failures.clear();
    for (size_t i = 0; i < n; ++i) {
      result.failures.push_back({i, oracle_.windows[i].end_ts, reason});
    }
    return result;
  };

  if (report.windows.size() > n) {
    return fail_all("run emitted more windows than the oracle");
  }
  if (report.consumption.num_windows() != report.windows.size()) {
    return fail_all("run reported no per-node consumption");
  }
  const CorrectnessReport overlap =
      CompareConsumption(oracle_.consumption, report.consumption);
  if (overlap.correctness < 0.99) {
    return fail_all(Describe("consumption overlap", overlap.correctness, 1.0));
  }
  // The sum of the events each window consumed, per node a contiguous
  // range of its stream.
  std::vector<double> recomputed;
  std::vector<uint64_t> position(config_.num_locals, 0);
  for (size_t w = 0; w < report.consumption.num_windows(); ++w) {
    const std::vector<uint64_t>& counts = report.consumption.window(w);
    double value = 0.0;
    for (size_t node = 0; node < config_.num_locals; ++node) {
      const uint64_t end = position[node] + counts[node];
      if (end >= prefix_[node].size()) {
        return fail_all("consumption log claims more events than node " +
                        std::to_string(node) + " produced");
      }
      value += prefix_[node][end] - prefix_[node][position[node]];
      position[node] = end;
    }
    recomputed.push_back(value);
  }

  for (size_t i = 0; i < n; ++i) {
    const GlobalWindowRecord& want = oracle_.windows[i];
    WindowFailure failure{i, want.end_ts, ""};
    if (i >= report.windows.size()) {
      // The final window alone may race end-of-stream.
      if (i + 1 < n) failure.reason = "missing";
    } else {
      const GlobalWindowRecord& got = report.windows[i];
      if (got.event_count != want.event_count) {
        failure.reason =
            Describe("event_count", static_cast<double>(got.event_count),
                     static_cast<double>(want.event_count));
      } else if (std::fabs(got.value - want.value) >
                 100.0 * RelTolerance(want.value)) {
        failure.reason = Describe("value beyond the 1e-4 async bound",
                                  got.value, want.value);
      } else if (std::fabs(got.value - recomputed[i]) >
                 RelTolerance(recomputed[i])) {
        failure.reason = Describe("value", got.value, recomputed[i],
                                  "sum of the events it consumed");
      }
    }
    if (!failure.reason.empty()) result.failures.push_back(failure);
  }
  return result;
}

}  // namespace deco::perfbench
