#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "baseline/root_merger.h"
#include "deco/assembler.h"
#include "event/serde.h"
#include "net/fabric.h"
#include "node/protocol.h"
#include "node/stream_set.h"
#include "stats.h"
#include "window/window.h"

namespace deco::perfbench {

namespace {

// One warm-up pass, then this many timed passes; each cost is the median.
constexpr int kTimedPasses = 5;
// Global windows the replayed inputs cover.
constexpr uint64_t kReplayWindows = 20;

// Times `body` after an untimed `prepare`, once to warm up and then
// `kTimedPasses` times; returns the median pass in nanoseconds. Each pass
// is a child span of `name`.
double MedianPassNanos(SpanLog* spans, const std::string& name,
                       const std::function<void()>& prepare,
                       const std::function<void()>& body) {
  const uint64_t run_id = spans->NextRunId();
  ScopedSpan outer(spans, "replay." + name, run_id);
  std::vector<double> passes;
  for (int pass = 0; pass <= kTimedPasses; ++pass) {
    prepare();
    ScopedSpan inner(spans, pass == 0 ? "warmup" : "pass", run_id);
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    if (pass > 0) {
      passes.push_back(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
  }
  return Median(std::move(passes));
}

// The workload's per-local streams, cut into its ingest batches.
std::vector<std::vector<EventVec>> GenerateBatches(
    const ExperimentConfig& config, uint64_t events_per_local) {
  std::vector<std::vector<EventVec>> batches(config.num_locals);
  for (size_t n = 0; n < config.num_locals; ++n) {
    StreamSet streams(MakeIngestConfig(config, n).streams);
    for (uint64_t done = 0; done < events_per_local;) {
      const size_t take = static_cast<size_t>(
          std::min<uint64_t>(config.batch_size, events_per_local - done));
      EventVec batch;
      streams.NextBatch(take, &batch);
      batches[n].push_back(std::move(batch));
      done += take;
    }
  }
  return batches;
}

// Per-node cumulative event positions at each global window's cut, in the
// merged `(timestamp, stream, id)` order: cuts[w][n] = events of node n in
// windows 0..w.
std::vector<std::vector<uint64_t>> WindowCuts(
    const std::vector<EventVec>& streams, uint64_t window) {
  RootMerger merger(streams.size());
  for (size_t n = 0; n < streams.size(); ++n) {
    merger.Append(n, streams[n], 0.0);
    merger.MarkEos(n);
  }
  std::vector<std::vector<uint64_t>> cuts;
  std::vector<uint64_t> counts(streams.size(), 0);
  uint64_t in_window = 0;
  Event e;
  double create = 0.0;
  size_t node = 0;
  while (merger.PopNext(&e, &create, &node)) {
    ++counts[node];
    if (++in_window == window) {
      cuts.push_back(counts);
      in_window = 0;
    }
  }
  return cuts;
}

SliceSummary MakeSlice(const AggregateFunction& func, const Event* begin,
                       const Event* end) {
  SliceSummary slice;
  slice.partial = func.CreatePartial();
  for (const Event* e = begin; e != end; ++e) {
    func.Accumulate(&slice.partial, e->value);
  }
  slice.event_count = static_cast<uint64_t>(end - begin);
  if (begin != end) {
    slice.min_ts = begin->timestamp;
    slice.max_ts = (end - 1)->timestamp;
    slice.max_stream_id = (end - 1)->stream_id;
    slice.max_event_id = (end - 1)->id;
  }
  return slice;
}

}  // namespace

Result<LayerCosts> ReplayLayers(const ExperimentConfig& config,
                                const ReplayShape& shape, SpanLog* spans) {
  LayerCosts costs;
  const size_t locals = config.num_locals;
  const uint64_t window = config.query.window.length;
  const uint64_t per_local = kReplayWindows * window / locals + window;
  const double events = static_cast<double>(per_local * locals);
  const auto no_prepare = [] {};
  DECO_ASSIGN_OR_RETURN(auto func, MakeAggregate(config.query.aggregate));

  const std::vector<std::vector<EventVec>> batches =
      GenerateBatches(config, per_local);
  std::vector<EventVec> streams(locals);
  for (size_t n = 0; n < locals; ++n) {
    for (const EventVec& b : batches[n]) {
      streams[n].insert(streams[n].end(), b.begin(), b.end());
    }
  }

  // stream: synthetic generation, batch by batch as a local ingests.
  EventVec sink;
  auto generate = [&] {
    for (size_t n = 0; n < locals; ++n) {
      StreamSet set(MakeIngestConfig(config, n).streams);
      for (uint64_t done = 0; done < per_local; done += config.batch_size) {
        sink.clear();
        set.NextBatch(config.batch_size, &sink);
      }
    }
  };
  costs.gen_ns_per_event =
      MedianPassNanos(spans, "stream.gen", no_prepare, generate) / events;

  // event: binary batch encode and decode.
  std::vector<std::string> encoded;
  auto encode = [&] {
    for (size_t n = 0; n < locals; ++n) {
      for (const EventVec& b : batches[n]) {
        BinaryWriter writer;
        writer.PutEvents(b);
        encoded.push_back(writer.Release());
      }
    }
  };
  costs.encode_ns_per_event =
      MedianPassNanos(spans, "event.encode", [&] { encoded.clear(); },
                      encode) /
      events;
  bool decoded_ok = true;
  auto decode = [&] {
    for (const std::string& buf : encoded) {
      BinaryReader reader(buf);
      decoded_ok &= reader.GetEvents().ok();
    }
  };
  costs.decode_ns_per_event =
      MedianPassNanos(spans, "event.decode", no_prepare, decode) / events;
  if (!decoded_ok) return Status::Internal("replayed batch failed to decode");

  // net: one fabric hop at event-batch payload size. The payload buffer
  // circulates, so no pass copies it.
  {
    NetworkFabric fabric(SystemClock::Default(), config.seed);
    const NodeId src = fabric.RegisterNode("local-0");
    const NodeId dst = fabric.RegisterNode("root");
    EventBatchPayload payload;
    payload.events = batches[0].front();
    BinaryWriter writer;
    EncodeEventBatch(payload, &writer);
    std::string buffer = writer.Release();
    constexpr int kHops = 20000;
    bool hops_ok = true;
    auto hop = [&] {
      for (int i = 0; i < kHops && hops_ok; ++i) {
        Message msg;
        msg.type = MessageType::kEventBatch;
        msg.src = src;
        msg.dst = dst;
        msg.payload = std::move(buffer);
        hops_ok &= fabric.Send(std::move(msg)).ok();
        std::optional<Message> got = fabric.mailbox(dst)->TryPop();
        hops_ok &= got.has_value();
        if (got.has_value()) buffer = std::move(got->payload);
      }
    };
    costs.hop_ns_per_msg =
        MedianPassNanos(spans, "net.hop", no_prepare, hop) / kHops;
    fabric.Shutdown();
    if (!hops_ok) return Status::Internal("replayed fabric hop failed");
  }

  // agg: every event into one partial per local.
  double total = 0.0;
  auto accumulate = [&] {
    for (size_t n = 0; n < locals; ++n) {
      Partial partial = func->CreatePartial();
      for (const Event& e : streams[n]) func->Accumulate(&partial, e.value);
      total += func->Finalize(partial);
    }
  };
  costs.accumulate_ns_per_event =
      MedianPassNanos(spans, "agg.accumulate", no_prepare, accumulate) /
      events;
  if (!std::isfinite(total)) return Status::Internal("non-finite sum");

  // baseline: the Central root's k-way merge over the locals' batches,
  // appended in arrival order.
  std::vector<std::vector<EventVec>> merge_input;
  EventVec merged;
  auto merge = [&] {
    RootMerger merger(locals);
    for (size_t b = 0; b < merge_input[0].size(); ++b) {
      for (size_t n = 0; n < locals; ++n) {
        merger.Append(n, std::move(merge_input[n][b]), 0.0);
      }
    }
    for (size_t n = 0; n < locals; ++n) merger.MarkEos(n);
    Event e;
    double create = 0.0;
    size_t node = 0;
    while (merger.PopNext(&e, &create, &node)) merged.push_back(e);
  };
  auto refill = [&] {
    merge_input = batches;
    merged.clear();
    merged.reserve(per_local * locals);
  };
  costs.merge_ns_per_event =
      MedianPassNanos(spans, "baseline.merge", refill, merge) / events;

  // window: the count tumbling windower over the merged order.
  DECO_ASSIGN_OR_RETURN(auto windower,
                        MakeWindower(config.query.window, func.get()));
  std::vector<WindowResult> closed;
  Status added = Status::OK();
  auto add = [&] {
    for (const Event& e : merged) {
      Status status = windower->Add(e, &closed);
      if (!status.ok()) added = status;
    }
  };
  costs.window_add_ns_per_event =
      MedianPassNanos(spans, "window.add", [&] { closed.clear(); }, add) /
      events;
  DECO_RETURN_NOT_OK(added);

  // deco: the root's verification and correction steps.
  const std::vector<std::vector<uint64_t>> cuts = WindowCuts(streams, window);
  // Raw events on each side of a node's cut, bounded so consecutive
  // windows' buffers never overlap.
  uint64_t min_share = UINT64_MAX;
  for (size_t w = 0; w < cuts.size(); ++w) {
    for (size_t n = 0; n < locals; ++n) {
      const uint64_t from = w == 0 ? 0 : cuts[w - 1][n];
      min_share = std::min(min_share, cuts[w][n] - from);
    }
  }
  const uint64_t half =
      std::clamp<uint64_t>(shape.raw_per_node_window / 2, 1,
                           std::max<uint64_t>(1, min_share / 4));
  // The last window needs `half` events past its cut on every node.
  size_t windows = cuts.size();
  auto fits = [&](size_t w) {
    for (size_t n = 0; n < locals; ++n) {
      if (cuts[w][n] + half > streams[n].size()) return false;
    }
    return true;
  };
  while (windows > 0 && !fits(windows - 1)) --windows;
  if (windows < 2) return Status::Internal("replay covers too few windows");

  // Sync-style inputs: per node and window, a slice ending `half` events
  // before the cut and an end buffer of `half` events on each side of it.
  struct NodeInput {
    SliceSummary slice;
    EventVec end;
  };
  std::vector<std::vector<NodeInput>> verify_input;
  auto ship = [&] {
    verify_input.assign(windows, std::vector<NodeInput>(locals));
    std::vector<uint64_t> shipped(locals, 0);
    for (size_t w = 0; w < windows; ++w) {
      for (size_t n = 0; n < locals; ++n) {
        const Event* base = streams[n].data();
        const uint64_t slice_end = cuts[w][n] - half;
        const uint64_t end_end = cuts[w][n] + half;
        verify_input[w][n].slice =
            MakeSlice(*func, base + shipped[n], base + slice_end);
        verify_input[w][n].end.assign(base + slice_end, base + end_end);
        shipped[n] = end_end;
      }
    }
  };
  bool verified = true;
  auto verify = [&] {
    WindowAssembler assembler(locals, func.get(), window);
    WindowAssembly out;
    for (size_t w = 0; w < windows; ++w) {
      for (size_t n = 0; n < locals; ++n) {
        NodeInput& in = verify_input[w][n];
        verified &= assembler.AddSlice(w, n, std::move(in.slice), 0.0).ok();
        verified &= assembler
                        .AddRaw(w, n, BatchRole::kEnd, std::move(in.end), 0.0)
                        .ok();
      }
      verified &= assembler.TryAssemble(&out) ==
                  WindowAssembler::Outcome::kAssembled;
    }
  };
  costs.verify_us_per_window =
      MedianPassNanos(spans, "deco.verify", ship, verify) / 1e3 /
      static_cast<double>(windows);
  if (!verified) {
    return Status::Internal("verify replay failed to assemble a window");
  }

  // Every window through the correction path: each node's candidates
  // start at its previous cut and run at least one event past the next.
  std::vector<std::vector<EventVec>> candidates(windows,
                                                std::vector<EventVec>(locals));
  for (size_t w = 0; w < windows; ++w) {
    for (size_t n = 0; n < locals; ++n) {
      const uint64_t from = w == 0 ? 0 : cuts[w - 1][n];
      const uint64_t want =
          std::max<uint64_t>(cuts[w][n] + 1, from + shape.candidates_per_node);
      const uint64_t to = std::min<uint64_t>(streams[n].size(), want);
      candidates[w][n].assign(streams[n].begin() + from,
                              streams[n].begin() + to);
    }
  }
  bool corrected = true;
  auto correct = [&] {
    WindowAssembler assembler(locals, func.get(), window);
    WindowAssembly out;
    std::vector<size_t> need_more;
    for (size_t w = 0; w < windows; ++w) {
      assembler.BeginCorrection();
      for (size_t n = 0; n < locals; ++n) {
        corrected &= assembler.AddCandidates(n, candidates[w][n], 0.0).ok();
      }
      corrected &= assembler.TryAssembleCorrected(&out, &need_more) ==
                   WindowAssembler::CorrectionOutcome::kAssembled;
    }
  };
  costs.correct_ms_per_window =
      MedianPassNanos(spans, "deco.correct", no_prepare, correct) / 1e6 /
      static_cast<double>(windows);
  if (!corrected) {
    return Status::Internal("correction replay failed to assemble a window");
  }
  return costs;
}

}  // namespace deco::perfbench
