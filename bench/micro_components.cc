// Google-benchmark microbenchmarks of the individual substrates: the
// per-event costs that determine where the end-to-end bottlenecks sit
// (aggregation kernels, wire formats, windowers, the k-way merges, and the
// fabric hop).
//
// Unlike the figure benches this binary delegates measurement to
// google-benchmark; a custom main bridges the two worlds so it still
// honours the shared flags: `--repeat=N` becomes
// `--benchmark_repetitions=N`, `--benchmark_*` flags pass through
// untouched, and every per-repetition run lands in the same
// `BENCH_micro_components.json` schema the figure benches emit
// (real/cpu ns per iteration plus google-benchmark's rate counters).

#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "agg/aggregate.h"
#include "baseline/root_merger.h"
#include "bench/bench_util.h"
#include "common/random.h"
#include "event/serde.h"
#include "metrics/histogram.h"
#include "net/fabric.h"
#include "node/apportion.h"
#include "node/stream_set.h"
#include "stream/generator.h"
#include "window/window.h"

namespace deco {
namespace {

EventVec MakeEvents(size_t n) {
  EventVec events;
  events.reserve(n);
  Rng rng(7);
  for (size_t i = 0; i < n; ++i) {
    Event e;
    e.id = i;
    e.stream_id = static_cast<StreamId>(i % 8);
    e.value = rng.NextDouble(-100, 100);
    e.timestamp = static_cast<EventTime>(i * 1000);
    events.push_back(e);
  }
  return events;
}

void BM_AggregateAccumulate(benchmark::State& state) {
  auto func = std::move(
      MakeAggregate(static_cast<AggregateKind>(state.range(0)))).value();
  const EventVec events = MakeEvents(4096);
  for (auto _ : state) {
    Partial partial = func->CreatePartial();
    for (const Event& e : events) func->Accumulate(&partial, e.value);
    benchmark::DoNotOptimize(func->Finalize(partial));
  }
  state.SetItemsProcessed(state.iterations() * events.size());
}
BENCHMARK(BM_AggregateAccumulate)
    ->Arg(static_cast<int>(AggregateKind::kSum))
    ->Arg(static_cast<int>(AggregateKind::kMin))
    ->Arg(static_cast<int>(AggregateKind::kAvg));

void BM_PartialMerge(benchmark::State& state) {
  auto func = std::move(MakeAggregate(AggregateKind::kSum)).value();
  Partial part = func->CreatePartial();
  func->Accumulate(&part, 42.0);
  for (auto _ : state) {
    Partial merged = func->CreatePartial();
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(func->Merge(&merged, part));
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PartialMerge);

void BM_BinaryEncodeBatch(benchmark::State& state) {
  const EventVec events = MakeEvents(state.range(0));
  for (auto _ : state) {
    BinaryWriter writer;
    writer.PutEvents(events);
    benchmark::DoNotOptimize(writer.buffer().data());
  }
  state.SetItemsProcessed(state.iterations() * events.size());
  state.SetBytesProcessed(state.iterations() * events.size() *
                          kBinaryEventSize);
}
BENCHMARK(BM_BinaryEncodeBatch)->Arg(256)->Arg(4096)->Arg(8192);

void BM_BinaryDecodeBatch(benchmark::State& state) {
  const EventVec events = MakeEvents(state.range(0));
  BinaryWriter writer;
  writer.PutEvents(events);
  const std::string buffer = writer.buffer();
  for (auto _ : state) {
    BinaryReader reader(buffer);
    auto decoded = reader.GetEvents();
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetItemsProcessed(state.iterations() * events.size());
}
BENCHMARK(BM_BinaryDecodeBatch)->Arg(256)->Arg(4096)->Arg(8192);

void BM_TextEncodeBatch(benchmark::State& state) {
  const EventVec events = MakeEvents(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeEventsText(events).data());
  }
  state.SetItemsProcessed(state.iterations() * events.size());
}
BENCHMARK(BM_TextEncodeBatch)->Arg(256)->Arg(4096);

void BM_TextDecodeBatch(benchmark::State& state) {
  const std::string text = EncodeEventsText(MakeEvents(state.range(0)));
  for (auto _ : state) {
    auto decoded = DecodeEventsText(text);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TextDecodeBatch)->Arg(256)->Arg(4096);

void BM_CountTumblingWindower(benchmark::State& state) {
  auto func = std::move(MakeAggregate(AggregateKind::kSum)).value();
  auto windower = std::move(
      MakeWindower(WindowSpec::CountTumbling(1024), func.get())).value();
  const EventVec events = MakeEvents(8192);
  std::vector<WindowResult> out;
  for (auto _ : state) {
    for (const Event& e : events) {
      (void)windower->Add(e, &out);
    }
    out.clear();
  }
  state.SetItemsProcessed(state.iterations() * events.size());
}
BENCHMARK(BM_CountTumblingWindower);

void BM_CountSlidingWindower(benchmark::State& state) {
  auto func = std::move(MakeAggregate(AggregateKind::kSum)).value();
  auto windower = std::move(MakeWindower(
      WindowSpec::CountSliding(1024, state.range(0)), func.get())).value();
  const EventVec events = MakeEvents(8192);
  std::vector<WindowResult> out;
  for (auto _ : state) {
    for (const Event& e : events) {
      (void)windower->Add(e, &out);
    }
    out.clear();
  }
  state.SetItemsProcessed(state.iterations() * events.size());
}
BENCHMARK(BM_CountSlidingWindower)->Arg(128)->Arg(512);

void BM_StreamSourceNext(benchmark::State& state) {
  StreamConfig config;
  config.rate.base_rate = 1e6;
  config.rate.change_fraction = 0.01;
  config.seed = 3;
  StreamSource source(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(source.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamSourceNext);

void BM_StreamSetMerge(benchmark::State& state) {
  std::vector<StreamConfig> configs;
  for (int s = 0; s < state.range(0); ++s) {
    StreamConfig config;
    config.stream_id = static_cast<StreamId>(s);
    config.rate.base_rate = 1e6;
    config.rate.change_fraction = 0.01;
    config.seed = s + 1;
    configs.push_back(config);
  }
  StreamSet set(configs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.Next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamSetMerge)->Arg(4)->Arg(16);

// Per-node batches of 1024 events whose timestamps interleave round-robin
// across `nodes`: every merge run is one event long, the worst case.
std::vector<EventVec> InterleavedBatches(size_t nodes) {
  std::vector<EventVec> batches(nodes);
  for (size_t n = 0; n < nodes; ++n) {
    for (int i = 0; i < 1024; ++i) {
      Event e;
      e.id = i;
      e.stream_id = static_cast<StreamId>(n);
      e.timestamp = static_cast<EventTime>(i * nodes + n);
      batches[n].push_back(e);
    }
  }
  return batches;
}

// A merge over `batches` with every node at end-of-stream. Each timed pass
// takes a fresh one: the batches' timestamps restart at 0, so appending
// them to a merge that already consumed a pass would reorder the runs.
RootMerger FinishedMerge(const std::vector<EventVec>& batches) {
  RootMerger merger(batches.size());
  for (size_t n = 0; n < batches.size(); ++n) {
    merger.Append(n, batches[n], 0.0);
    merger.MarkEos(n);
  }
  return merger;
}

void BM_RootMergerPop(benchmark::State& state) {
  const size_t kNodes = state.range(0);
  const std::vector<EventVec> batches = InterleavedBatches(kNodes);
  Event e;
  double create = 0;
  size_t node = 0;
  for (auto _ : state) {
    state.PauseTiming();
    RootMerger merger = FinishedMerge(batches);
    state.ResumeTiming();
    while (merger.PopNext(&e, &create, &node)) {
    }
  }
  state.SetItemsProcessed(state.iterations() * kNodes * 1024);
}
BENCHMARK(BM_RootMergerPop)->Arg(2)->Arg(8);

// Central's root path: drain merge runs into a 100k-event window buffer,
// cutting runs at the window edge.
void BM_RootMergerDrainRuns(benchmark::State& state) {
  const size_t kNodes = state.range(0);
  constexpr size_t kWindow = 100'000;
  const std::vector<EventVec> batches = InterleavedBatches(kNodes);
  EventVec window;
  window.reserve(kWindow);
  RootMerger::Run run;
  for (auto _ : state) {
    state.PauseTiming();
    RootMerger merger = FinishedMerge(batches);
    state.ResumeTiming();
    while (merger.NextRun(kWindow - window.size(), &run)) {
      window.insert(window.end(), run.begin, run.end);
      if (window.size() == kWindow) window.clear();
    }
  }
  state.SetItemsProcessed(state.iterations() * kNodes * 1024);
}
BENCHMARK(BM_RootMergerDrainRuns)->Arg(2)->Arg(8);

void BM_FabricSendReceive(benchmark::State& state) {
  NetworkFabric fabric(SystemClock::Default(), 1);
  const NodeId a = fabric.RegisterNode("a");
  const NodeId b = fabric.RegisterNode("b");
  fabric.SetFlowControlLimit(0);
  std::string payload(state.range(0), 'x');
  for (auto _ : state) {
    Message msg;
    msg.type = MessageType::kPartialResult;
    msg.src = a;
    msg.dst = b;
    msg.payload = payload;
    (void)fabric.Send(std::move(msg));
    benchmark::DoNotOptimize(fabric.mailbox(b)->TryPop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FabricSendReceive)->Arg(64)->Arg(65536);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram histogram;
  Rng rng(5);
  for (auto _ : state) {
    histogram.Record(static_cast<int64_t>(rng.NextBounded(1'000'000'000)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_Apportion(benchmark::State& state) {
  std::vector<double> weights;
  Rng rng(11);
  for (int i = 0; i < state.range(0); ++i) {
    weights.push_back(rng.NextDouble(0.5, 2.0));
  }
  for (auto _ : state) {
    auto shares = ApportionWindow(1'000'000, weights);
    benchmark::DoNotOptimize(shares.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Apportion)->Arg(8)->Arg(64);

/// Console output as usual, but every per-repetition run is also captured
/// as BenchRecorder metrics (aggregates are skipped: the recorder computes
/// its own min/median/stddev across the repetitions).
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(BenchRecorder* recorder)
      : recorder_(recorder) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.report_big_o || run.report_rms) {
        continue;
      }
      const std::string label = run.benchmark_name();
      recorder_->AddMetric(label, "real_time_ns", run.GetAdjustedRealTime());
      recorder_->AddMetric(label, "cpu_time_ns", run.GetAdjustedCPUTime());
      for (const auto& counter : run.counters) {
        recorder_->AddMetric(label, counter.first, counter.second.value);
      }
    }
  }

 private:
  BenchRecorder* recorder_;
};

}  // namespace
}  // namespace deco

int main(int argc, char** argv) {
  using namespace deco;
  const bench::BenchOptions opts =
      bench::BenchOptions::Parse(argc, argv, "micro_components");

  // google-benchmark rejects unknown flags, so hand it only its own
  // (`--benchmark_*`) plus the translation of our shared `--repeat`.
  std::vector<std::string> args;
  args.push_back(argc > 0 ? argv[0] : "micro_components");
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) {
      args.push_back(argv[i]);
    }
  }
  if (opts.repeat > 1) {
    args.push_back("--benchmark_repetitions=" +
                   std::to_string(opts.repeat));
  }
  std::vector<char*> bench_argv;
  bench_argv.reserve(args.size());
  for (std::string& arg : args) bench_argv.push_back(arg.data());
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());

  BenchRecorder recorder(opts.bench_name);
  opts.RecordConfig(&recorder);
  RecordingReporter reporter(&recorder);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return bench::Finish(opts, recorder);
}
