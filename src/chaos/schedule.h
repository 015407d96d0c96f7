#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"

/// \file schedule.h
/// \brief Declarative fault timelines for chaos experiments.
///
/// A `ChaosSchedule` is a list of `FaultEvent`s, each anchored at an offset
/// from experiment start. Schedules are pure data: building one has no side
/// effects, and the same schedule replayed against the same fabric seed
/// yields the same audit log and the same per-link drop counts, which is
/// what makes chaos runs reproducible (the D-P2P-Sim style of protocol
/// testing, see DESIGN.md §6).
///
/// Schedules can be built fluently:
///
///     ChaosSchedule s;
///     s.Crash("local-1", 300 * kNanosPerMilli)
///      .Restart("local-1", 800 * kNanosPerMilli);
///
/// or parsed from the compact spec grammar used by `deco_run --chaos=`:
///
///     events    := event ("," event)*
///     event     := kind ":" target "@" time ["+" duration] ["=" value]
///     kind      := "crash" | "restart" | "drop" | "lag" | "part" | "surge"
///     time      := <number> ["ns" | "us" | "ms" | "s"]     (default ms)
///
/// e.g. `crash:local-1@300ms,restart:local-1@800ms` or
/// `drop:local-0@100ms+200ms=0.5,lag:root@1s+500ms=20ms,surge:local-2@200+400=3`.
/// `value` is the drop probability for `drop`, the added one-way latency
/// (time syntax) for `lag`, and the rate multiplier for `surge`.

namespace deco {

/// \brief What kind of fault an event injects.
enum class FaultKind {
  kCrash,         ///< Node goes down (`SetNodeDown(true)`).
  kRestart,       ///< Node comes back (`SetNodeDown(false)`, mailbox purged).
  kDropBurst,     ///< Probabilistic loss on all links touching the target.
  kLatencySpike,  ///< Added one-way latency on all links touching the target.
  kPartition,     ///< All links touching the target blocked (hard partition).
  kRateSurge,     ///< Target's ingest rate multiplied by `rate_factor`.
};

/// \brief Spec-grammar keyword of a kind ("crash", "drop", ...).
const char* FaultKindName(FaultKind kind);

/// \brief One scheduled fault. Duration-style faults (drop burst, latency
/// spike, partition, rate surge) are automatically reverted
/// `duration_nanos` after they fire; `duration_nanos == 0` means they hold
/// until the end of the run. Crash/restart are instantaneous state flips
/// and ignore the duration.
struct FaultEvent {
  TimeNanos at_nanos = 0;       ///< Offset from experiment start.
  FaultKind kind = FaultKind::kCrash;
  std::string target;           ///< Node name, e.g. "local-1" or "root".
  TimeNanos duration_nanos = 0;
  double drop_probability = 1.0;  ///< kDropBurst only.
  TimeNanos latency_nanos = 0;    ///< kLatencySpike only.
  double rate_factor = 1.0;       ///< kRateSurge only.

  /// \brief Spec-grammar rendering of this event (inverse of `Parse`).
  std::string ToSpec() const;
};

/// \brief A timeline of fault events.
class ChaosSchedule {
 public:
  /// Fluent builders; `at` is the offset from experiment start.
  ChaosSchedule& Crash(const std::string& target, TimeNanos at);
  ChaosSchedule& Restart(const std::string& target, TimeNanos at);
  ChaosSchedule& DropBurst(const std::string& target, TimeNanos at,
                           TimeNanos duration, double probability);
  ChaosSchedule& LatencySpike(const std::string& target, TimeNanos at,
                              TimeNanos duration, TimeNanos latency);
  ChaosSchedule& Partition(const std::string& target, TimeNanos at,
                           TimeNanos duration);
  ChaosSchedule& RateSurge(const std::string& target, TimeNanos at,
                           TimeNanos duration, double factor);
  ChaosSchedule& Add(FaultEvent event);

  /// \brief Parses the compact spec grammar (see file comment). Returns
  /// InvalidArgument with a pointer at the offending token on bad input.
  static Result<ChaosSchedule> Parse(const std::string& spec);

  /// \brief Spec-grammar rendering; `Parse(ToSpecString())` round-trips.
  std::string ToSpecString() const;

  /// \brief Structural checks that need no fabric: non-negative times,
  /// probabilities in [0, 1], positive rate factors, non-empty targets, and
  /// crash/restart alternation per target (no restart of a never-crashed
  /// node, no double crash).
  Status Validate() const;

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace deco
