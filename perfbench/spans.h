#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

/// \file spans.h
/// \brief The benchmark's own spans: one per `RunExperiment` call and per
/// replayed library call, kept in memory and written out once at exit.
/// Spans come from the benchmark's files only; the program is measured
/// from outside.

namespace deco::perfbench {

class SpanLog {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;  ///< 0 = top level
    uint64_t run_id = 0;  ///< spans of one run or replay share it
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// \brief Opens a span under the innermost open one; returns its id
  /// (0 when disabled).
  uint64_t Begin(std::string name, uint64_t run_id) {
    if (!enabled_) return 0;
    Span span;
    span.id = spans_.size() + 1;
    span.parent = open_.empty() ? 0 : open_.back();
    span.run_id = run_id;
    span.name = std::move(name);
    span.start_ns = Now();
    spans_.push_back(std::move(span));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void End(uint64_t id) {
    if (!enabled_ || id == 0) return;
    spans_[id - 1].end_ns = Now();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  uint64_t NextRunId() { return ++last_run_id_; }

  const std::vector<Span>& spans() const { return spans_; }

  /// \brief Writes every span as one JSON document; false on I/O error.
  bool WriteJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"clock\": \"steady_clock_ns\", \"spans\": [");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n  {\"id\": %llu, \"parent\": %llu, \"run_id\": %llu, "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}",
                   i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.run_id), s.name.c_str(),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  uint64_t last_run_id_ = 0;
  std::vector<Span> spans_;
  std::vector<uint64_t> open_;
};

/// \brief RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, uint64_t run_id)
      : log_(log), id_(log->Begin(std::move(name), run_id)) {}
  ~ScopedSpan() { log_->End(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint64_t id_;
};

}  // namespace deco::perfbench
