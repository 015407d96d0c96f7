#include "chaos/schedule.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>

namespace deco {
namespace {

/// Formats nanoseconds in the largest unit that divides them exactly, so
/// `ToSpec` output stays human-readable ("300ms", not "300000000ns").
std::string FormatTime(TimeNanos nanos) {
  std::ostringstream out;
  if (nanos != 0 && nanos % kNanosPerSecond == 0) {
    out << nanos / kNanosPerSecond << "s";
  } else if (nanos != 0 && nanos % kNanosPerMilli == 0) {
    out << nanos / kNanosPerMilli << "ms";
  } else if (nanos != 0 && nanos % 1000 == 0) {
    out << nanos / 1000 << "us";
  } else {
    out << nanos << "ns";
  }
  return out.str();
}

/// Trims a trailing-zero double ("0.5", "3", "0.25").
std::string FormatValue(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

Result<TimeNanos> ParseTime(const std::string& token) {
  if (token.empty()) return Status::InvalidArgument("empty time");
  size_t pos = 0;
  double magnitude = 0.0;
  try {
    magnitude = std::stod(token, &pos);
  } catch (const std::exception&) {
    return Status::InvalidArgument("bad time '" + token + "'");
  }
  const std::string unit = token.substr(pos);
  double scale;
  if (unit.empty() || unit == "ms") {
    scale = static_cast<double>(kNanosPerMilli);
  } else if (unit == "ns") {
    scale = 1.0;
  } else if (unit == "us") {
    scale = 1e3;
  } else if (unit == "s") {
    scale = static_cast<double>(kNanosPerSecond);
  } else {
    return Status::InvalidArgument("bad time unit '" + unit + "'");
  }
  const double nanos = magnitude * scale;
  if (nanos < 0) return Status::InvalidArgument("negative time '" + token + "'");
  return static_cast<TimeNanos>(std::llround(nanos));
}

Result<double> ParseNumber(const std::string& token) {
  size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(token, &pos);
  } catch (const std::exception&) {
    return Status::InvalidArgument("bad number '" + token + "'");
  }
  if (pos != token.size()) {
    return Status::InvalidArgument("bad number '" + token + "'");
  }
  return v;
}

Result<FaultKind> ParseKind(const std::string& token) {
  if (token == "crash") return FaultKind::kCrash;
  if (token == "restart") return FaultKind::kRestart;
  if (token == "drop") return FaultKind::kDropBurst;
  if (token == "lag") return FaultKind::kLatencySpike;
  if (token == "part") return FaultKind::kPartition;
  if (token == "surge") return FaultKind::kRateSurge;
  return Status::InvalidArgument("unknown fault kind '" + token + "'");
}

Result<FaultEvent> ParseEvent(const std::string& token) {
  const size_t colon = token.find(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("event '" + token + "' lacks ':'");
  }
  FaultEvent event;
  DECO_ASSIGN_OR_RETURN(event.kind, ParseKind(token.substr(0, colon)));

  const size_t at = token.find('@', colon + 1);
  if (at == std::string::npos) {
    return Status::InvalidArgument("event '" + token + "' lacks '@<time>'");
  }
  event.target = token.substr(colon + 1, at - colon - 1);
  if (event.target.empty()) {
    return Status::InvalidArgument("event '" + token + "' has empty target");
  }

  std::string rest = token.substr(at + 1);
  std::string value_str;
  const size_t eq = rest.find('=');
  if (eq != std::string::npos) {
    value_str = rest.substr(eq + 1);
    rest = rest.substr(0, eq);
  }
  std::string duration_str;
  const size_t plus = rest.find('+');
  if (plus != std::string::npos) {
    duration_str = rest.substr(plus + 1);
    rest = rest.substr(0, plus);
  }

  DECO_ASSIGN_OR_RETURN(event.at_nanos, ParseTime(rest));
  if (!duration_str.empty()) {
    DECO_ASSIGN_OR_RETURN(event.duration_nanos, ParseTime(duration_str));
  }
  if (!value_str.empty()) {
    switch (event.kind) {
      case FaultKind::kDropBurst: {
        DECO_ASSIGN_OR_RETURN(event.drop_probability, ParseNumber(value_str));
        break;
      }
      case FaultKind::kLatencySpike: {
        DECO_ASSIGN_OR_RETURN(event.latency_nanos, ParseTime(value_str));
        break;
      }
      case FaultKind::kRateSurge: {
        DECO_ASSIGN_OR_RETURN(event.rate_factor, ParseNumber(value_str));
        break;
      }
      default:
        return Status::InvalidArgument("event '" + token +
                                       "': '=' value not allowed for " +
                                       std::string(FaultKindName(event.kind)));
    }
  } else if (event.kind == FaultKind::kLatencySpike) {
    return Status::InvalidArgument("event '" + token +
                                   "': lag requires '=<latency>'");
  } else if (event.kind == FaultKind::kRateSurge) {
    return Status::InvalidArgument("event '" + token +
                                   "': surge requires '=<factor>'");
  }
  return event;
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kRestart: return "restart";
    case FaultKind::kDropBurst: return "drop";
    case FaultKind::kLatencySpike: return "lag";
    case FaultKind::kPartition: return "part";
    case FaultKind::kRateSurge: return "surge";
  }
  return "?";
}

std::string FaultEvent::ToSpec() const {
  std::ostringstream out;
  out << FaultKindName(kind) << ":" << target << "@" << FormatTime(at_nanos);
  if (duration_nanos > 0) out << "+" << FormatTime(duration_nanos);
  switch (kind) {
    case FaultKind::kDropBurst:
      out << "=" << FormatValue(drop_probability);
      break;
    case FaultKind::kLatencySpike:
      out << "=" << FormatTime(latency_nanos);
      break;
    case FaultKind::kRateSurge:
      out << "=" << FormatValue(rate_factor);
      break;
    default:
      break;
  }
  return out.str();
}

ChaosSchedule& ChaosSchedule::Crash(const std::string& target, TimeNanos at) {
  FaultEvent e;
  e.kind = FaultKind::kCrash;
  e.target = target;
  e.at_nanos = at;
  return Add(std::move(e));
}

ChaosSchedule& ChaosSchedule::Restart(const std::string& target,
                                      TimeNanos at) {
  FaultEvent e;
  e.kind = FaultKind::kRestart;
  e.target = target;
  e.at_nanos = at;
  return Add(std::move(e));
}

ChaosSchedule& ChaosSchedule::DropBurst(const std::string& target,
                                        TimeNanos at, TimeNanos duration,
                                        double probability) {
  FaultEvent e;
  e.kind = FaultKind::kDropBurst;
  e.target = target;
  e.at_nanos = at;
  e.duration_nanos = duration;
  e.drop_probability = probability;
  return Add(std::move(e));
}

ChaosSchedule& ChaosSchedule::LatencySpike(const std::string& target,
                                           TimeNanos at, TimeNanos duration,
                                           TimeNanos latency) {
  FaultEvent e;
  e.kind = FaultKind::kLatencySpike;
  e.target = target;
  e.at_nanos = at;
  e.duration_nanos = duration;
  e.latency_nanos = latency;
  return Add(std::move(e));
}

ChaosSchedule& ChaosSchedule::Partition(const std::string& target,
                                        TimeNanos at, TimeNanos duration) {
  FaultEvent e;
  e.kind = FaultKind::kPartition;
  e.target = target;
  e.at_nanos = at;
  e.duration_nanos = duration;
  return Add(std::move(e));
}

ChaosSchedule& ChaosSchedule::RateSurge(const std::string& target,
                                        TimeNanos at, TimeNanos duration,
                                        double factor) {
  FaultEvent e;
  e.kind = FaultKind::kRateSurge;
  e.target = target;
  e.at_nanos = at;
  e.duration_nanos = duration;
  e.rate_factor = factor;
  return Add(std::move(e));
}

ChaosSchedule& ChaosSchedule::Add(FaultEvent event) {
  events_.push_back(std::move(event));
  return *this;
}

Result<ChaosSchedule> ChaosSchedule::Parse(const std::string& spec) {
  ChaosSchedule schedule;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string token = spec.substr(start, end - start);
    if (!token.empty()) {
      DECO_ASSIGN_OR_RETURN(FaultEvent event, ParseEvent(token));
      schedule.Add(std::move(event));
    }
    start = end + 1;
  }
  DECO_RETURN_NOT_OK(schedule.Validate());
  return schedule;
}

std::string ChaosSchedule::ToSpecString() const {
  std::ostringstream out;
  for (size_t i = 0; i < events_.size(); ++i) {
    if (i > 0) out << ",";
    out << events_[i].ToSpec();
  }
  return out.str();
}

Status ChaosSchedule::Validate() const {
  // Crash/restart pairing is checked in schedule order per target: the
  // controller applies ties in list order, so the schedule's own order is
  // the semantics.
  std::map<std::string, bool> down;  // target -> currently crashed
  std::vector<const FaultEvent*> ordered;
  ordered.reserve(events_.size());
  for (const FaultEvent& e : events_) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FaultEvent* a, const FaultEvent* b) {
                     return a->at_nanos < b->at_nanos;
                   });
  for (const FaultEvent* e : ordered) {
    if (e->target.empty()) {
      return Status::InvalidArgument("fault event has empty target");
    }
    if (e->at_nanos < 0 || e->duration_nanos < 0 || e->latency_nanos < 0) {
      return Status::InvalidArgument("fault event '" + e->ToSpec() +
                                     "' has a negative time");
    }
    switch (e->kind) {
      case FaultKind::kCrash:
        if (down[e->target]) {
          return Status::InvalidArgument("double crash of '" + e->target +
                                         "' at " + e->ToSpec());
        }
        down[e->target] = true;
        break;
      case FaultKind::kRestart:
        if (!down[e->target]) {
          return Status::InvalidArgument("restart of non-crashed '" +
                                         e->target + "' at " + e->ToSpec());
        }
        down[e->target] = false;
        break;
      case FaultKind::kDropBurst:
        if (e->drop_probability < 0.0 || e->drop_probability > 1.0) {
          return Status::InvalidArgument(
              "drop probability outside [0, 1] in '" + e->ToSpec() + "'");
        }
        break;
      case FaultKind::kRateSurge:
        if (e->rate_factor <= 0.0) {
          return Status::InvalidArgument("non-positive rate factor in '" +
                                         e->ToSpec() + "'");
        }
        break;
      default:
        break;
    }
  }
  return Status::OK();
}

}  // namespace deco
