#pragma once

#include <cstddef>

#include "common/result.h"
#include "harness/experiment.h"
#include "spans.h"

/// \file replay.h
/// \brief Per-layer costs timed from outside: the benchmark calls each
/// layer's public functions single-threaded on the workload's own inputs
/// (`MakeIngestConfig` streams, batch size, window size, local count),
/// after a warm-up pass, and reports the median of the timed passes.

namespace deco::perfbench {

/// Sizes the two assembler replays take from the traced run, so they
/// assemble windows shaped like the workload's.
struct ReplayShape {
  /// Raw events each local ships per window around its cut (its end
  /// buffer); the verify replay ships this many per node and window.
  size_t raw_per_node_window = 0;
  /// Events in one local's correction response; the correction replay
  /// installs at least this many candidates per node and window.
  size_t candidates_per_node = 0;
};

struct LayerCosts {
  double gen_ns_per_event = 0.0;         ///< StreamSet::NextBatch
  double encode_ns_per_event = 0.0;      ///< BinaryWriter::PutEvents
  double decode_ns_per_event = 0.0;      ///< BinaryReader::GetEvents
  double hop_ns_per_msg = 0.0;           ///< NetworkFabric::Send + pop
  double accumulate_ns_per_event = 0.0;  ///< AggregateFunction::Accumulate
  double window_add_ns_per_event = 0.0;  ///< count tumbling Windower::Add
  double merge_ns_per_event = 0.0;       ///< RootMerger Append + PopNext
  double verify_us_per_window = 0.0;     ///< AddSlice/AddRaw/TryAssemble
  double correct_ms_per_window = 0.0;    ///< BeginCorrection/AddCandidates/
                                         ///< TryAssembleCorrected
};

Result<LayerCosts> ReplayLayers(const ExperimentConfig& config,
                                const ReplayShape& shape, SpanLog* spans);

}  // namespace deco::perfbench
