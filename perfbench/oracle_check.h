#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "harness/experiment.h"
#include "harness/oracle.h"

/// \file oracle_check.h
/// \brief Checks every window a run emitted against the single-threaded
/// oracle, with the per-scheme rules of
/// `tests/differential_test.cc::CheckScheme`.

namespace deco::perfbench {

struct WindowFailure {
  size_t oracle_window = 0;
  EventTime end_ts = 0;
  std::string reason;
};

struct CheckResult {
  size_t oracle_windows = 0;  ///< windows checked (the denominator)
  std::vector<WindowFailure> failures;
};

class OracleCheck {
 public:
  /// \brief Computes the oracle for `config` once; every `Check` reuses it.
  static Result<OracleCheck> Make(const ExperimentConfig& config);

  size_t windows() const { return oracle_.windows.size(); }

  /// \brief A window fails when it is missing or breaks its scheme's rules:
  ///  - exact schemes: windows align on `end_ts` (one lost window counts
  ///    once, not for every later one); count, value and per-node
  ///    consumption must equal the oracle's;
  ///  - deco-async: windows align by index; count must match, value
  ///    within 1e-4 of the oracle and within 1e-6 of the sum of the
  ///    events the run says it consumed, with >= 99% consumption overlap;
  ///    only the final window may be missing (it races end-of-stream).
  CheckResult Check(const RunReport& report) const;

 private:
  OracleCheck(ExperimentConfig config, OracleReference oracle,
              std::vector<std::vector<double>> prefix)
      : config_(std::move(config)),
        oracle_(std::move(oracle)),
        prefix_(std::move(prefix)) {}

  CheckResult CheckExact(const RunReport& report) const;
  CheckResult CheckAsync(const RunReport& report) const;

  ExperimentConfig config_;
  OracleReference oracle_;
  /// deco-async only: prefix_[n][k] = sum of node n's first k event
  /// values. `RecomputeWindowValues` answers the same question but
  /// regenerates both streams on every call, which costs more than the
  /// call it checks; these sums make a call's check O(windows).
  std::vector<std::vector<double>> prefix_;
};

}  // namespace deco::perfbench
