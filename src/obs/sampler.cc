#include "obs/sampler.h"

#include <algorithm>
#include <chrono>

namespace deco {
namespace {

/// Estimated heap footprint of one retained sample. Size-based (never
/// capacity-based) so the estimate replays identically under --sim.
uint64_t ApproxSampleBytes(const TelemetrySample& sample) {
  uint64_t bytes = sizeof(TelemetrySample);
  bytes += sample.nodes.size() * sizeof(NodeSample);
  for (const NodeSample& node : sample.nodes) bytes += node.name.size();
  for (const auto& [name, value] : sample.metrics.counters) {
    (void)value;
    bytes += sizeof(std::pair<std::string, int64_t>) + name.size();
  }
  for (const auto& [name, value] : sample.metrics.gauges) {
    (void)value;
    bytes += sizeof(std::pair<std::string, int64_t>) + name.size();
  }
  for (const HistogramSnapshot& h : sample.metrics.histograms) {
    bytes += sizeof(HistogramSnapshot) + h.name.size();
  }
  for (const SketchSnapshot& s : sample.metrics.sketches) {
    bytes += sizeof(SketchSnapshot) + s.name.size();
  }
  return bytes;
}

FleetMetricSummary Summarize(const QuantileSketch& sketch, uint64_t sum) {
  FleetMetricSummary summary;
  summary.sum = sum;
  summary.min = sketch.min();
  summary.max = sketch.max();
  summary.p50 = sketch.Quantile(0.5);
  summary.p99 = sketch.Quantile(0.99);
  return summary;
}

}  // namespace

FleetScan ScanFleet(const NetworkFabric& fabric) {
  FleetScan scan;
  const size_t n = fabric.node_count();
  scan.node_count = n;
  scan.queue_depth.resize(n);
  scan.messages_sent.resize(n);
  scan.bytes_sent.resize(n);
  scan.messages_received.resize(n);
  scan.down.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    const uint64_t depth = fabric.queue_depth(id);
    const NodeTrafficStats traffic = fabric.node_stats(id);
    scan.queue_depth[id] = depth;
    scan.messages_sent[id] = traffic.messages_sent;
    scan.bytes_sent[id] = traffic.bytes_sent;
    scan.messages_received[id] = traffic.messages_received;
    scan.down[id] = fabric.IsNodeDown(id) ? 1 : 0;
    scan.nodes_down += scan.down[id];
    scan.total_queue_depth += depth;
    scan.total_messages_sent += traffic.messages_sent;
    scan.total_bytes_sent += traffic.bytes_sent;
    scan.total_messages_received += traffic.messages_received;
    scan.total_bytes_received += traffic.bytes_received;
    scan.queue_depth_sketch.Add(static_cast<double>(depth));
    scan.messages_sent_sketch.Add(static_cast<double>(traffic.messages_sent));
    scan.bytes_sent_sketch.Add(static_cast<double>(traffic.bytes_sent));
    scan.messages_received_sketch.Add(
        static_cast<double>(traffic.messages_received));
  }
  return scan;
}

Sampler::Sampler(Clock* clock, NetworkFabric* fabric,
                 MetricRegistry* registry, TimeNanos interval_nanos,
                 SimScheduler* sim)
    : clock_(clock),
      fabric_(fabric),
      registry_(registry),
      interval_nanos_(std::max<TimeNanos>(interval_nanos, kNanosPerMilli)),
      sim_(sim) {}

Sampler::~Sampler() { Stop(); }

TelemetrySample Sampler::SampleNow() {
  const auto wall_start = std::chrono::steady_clock::now();
  TelemetrySample sample;
  sample.t_nanos = clock_->NowNanos();
  uint64_t tick;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tick = tick_count_++;
  }
  if (fabric_ != nullptr) {
    // Scalar pass: constant work per node. Feeds the fleet aggregates and
    // the staleness watch whether or not detail is governed.
    const FleetScan scan = ScanFleet(*fabric_);
    const size_t n = scan.node_count;
    const bool collapsed = governance_.Collapsed(n);
    sample.fleet.node_count = n;
    sample.fleet.collapsed = collapsed;
    sample.fleet.nodes_down = scan.nodes_down;
    sample.fleet.total_messages_sent = scan.total_messages_sent;
    sample.fleet.total_bytes_sent = scan.total_bytes_sent;
    sample.fleet.total_messages_received = scan.total_messages_received;
    sample.fleet.total_bytes_received = scan.total_bytes_received;
    sample.fleet.queue_depth =
        Summarize(scan.queue_depth_sketch, scan.total_queue_depth);
    sample.fleet.messages_sent =
        Summarize(scan.messages_sent_sketch, scan.total_messages_sent);
    sample.fleet.bytes_sent =
        Summarize(scan.bytes_sent_sketch, scan.total_bytes_sent);
    std::vector<uint64_t> silent_for(n, 0);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (watch_.size() < n) watch_.resize(n);
      for (NodeId id = 0; id < n; ++id) {
        NodeWatch& watch = watch_[id];
        if (tick == 0 || scan.messages_sent[id] != watch.last_sent) {
          watch.last_sent = scan.messages_sent[id];
          watch.last_change_nanos = sample.t_nanos;
        }
        silent_for[id] =
            static_cast<uint64_t>(sample.t_nanos - watch.last_change_nanos);
      }
    }

    // Detail pass: every node when ungoverned (byte-identical to the
    // pre-governance sampler); a strided subset plus the current top-k
    // offenders when collapsed.
    std::vector<NodeId> detail_ids;
    if (!collapsed) {
      detail_ids.resize(n);
      for (NodeId id = 0; id < n; ++id) detail_ids[id] = id;
    } else {
      const size_t stride = governance_.Stride(n);
      const size_t phase = static_cast<size_t>(tick % stride);
      for (NodeId id = phase; id < n; id += stride) detail_ids.push_back(id);
      const size_t k = governance_.top_k;
      const std::vector<NodeId> deep = TopKIndices(scan.queue_depth, k);
      const std::vector<NodeId> heavy = TopKIndices(scan.bytes_sent, k);
      const std::vector<NodeId> stale = TopKIndices(silent_for, k);
      detail_ids.insert(detail_ids.end(), deep.begin(), deep.end());
      detail_ids.insert(detail_ids.end(), heavy.begin(), heavy.end());
      detail_ids.insert(detail_ids.end(), stale.begin(), stale.end());
      std::sort(detail_ids.begin(), detail_ids.end());
      detail_ids.erase(std::unique(detail_ids.begin(), detail_ids.end()),
                       detail_ids.end());
      std::lock_guard<std::mutex> lock(mu_);
      for (NodeId id : deep) queue_offenders_.Offer(id);
      for (NodeId id : heavy) bytes_offenders_.Offer(id);
      for (NodeId id : stale) stale_offenders_.Offer(id);
    }
    sample.fleet.detail_nodes = detail_ids.size();
    sample.nodes.reserve(detail_ids.size());
    for (NodeId id : detail_ids) {
      NodeSample node;
      node.node = id;
      node.name = fabric_->node_name(id);
      node.queue_depth = scan.queue_depth[id];
      const NodeTrafficStats traffic = fabric_->node_stats(id);
      node.messages_sent = traffic.messages_sent;
      node.bytes_sent = traffic.bytes_sent;
      node.messages_received = traffic.messages_received;
      node.bytes_received = traffic.bytes_received;
      node.messages_sent_by_type = traffic.messages_sent_by_type;
      node.bytes_sent_by_type = traffic.bytes_sent_by_type;
      sample.nodes.push_back(std::move(node));
    }
    sample.total_dropped = fabric_->Stats().total_dropped;
  }
  if (registry_ != nullptr) {
    sample.metrics = registry_->Snapshot();
  }
  const double wall_nanos = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wall_start)
          .count());
  uint64_t tracker_bytes;
  {
    std::lock_guard<std::mutex> lock(mu_);
    samples_.push_back(sample);
    tracker_bytes_ += ApproxSampleBytes(sample);
    tracker_bytes = tracker_bytes_;
    tick_wall_nanos_.Add(wall_nanos);
  }
  if (registry_ != nullptr) {
    // Self-metering (DESIGN.md §13): the plane reports its own cost. The
    // snapshot above ran first, so these land in the *next* sample —
    // deterministic, and never part of the tick they measure.
    registry_->counter("obs.self.sampler_ticks")->Increment();
    registry_->sketch("obs.self.sampler_tick_nanos")->Observe(wall_nanos);
    registry_->gauge("obs.self.tracker_bytes")
        ->Set(static_cast<int64_t>(tracker_bytes));
  }
  if (observer_) observer_(sample);
  return sample;
}

std::vector<std::pair<NodeId, TimeNanos>> Sampler::StalestNodes(
    size_t k) const {
  std::vector<std::pair<NodeId, TimeNanos>> stale;
  const TimeNanos now = clock_->NowNanos();
  std::lock_guard<std::mutex> lock(mu_);
  stale.reserve(watch_.size());
  for (NodeId id = 0; id < watch_.size(); ++id) {
    stale.emplace_back(id, now - watch_[id].last_change_nanos);
  }
  std::sort(stale.begin(), stale.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (stale.size() > k) stale.resize(k);
  return stale;
}

Sampler::Offenders Sampler::PersistentOffenders(size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  Offenders offenders;
  offenders.queue_depth = queue_offenders_.Top(k);
  offenders.bytes_sent = bytes_offenders_.Top(k);
  offenders.stale = stale_offenders_.Top(k);
  return offenders;
}

SamplerSelfStats Sampler::SelfStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SamplerSelfStats stats;
  stats.ticks = tick_count_;
  stats.tick_nanos_mean =
      tick_wall_nanos_.count() == 0
          ? 0.0
          : tick_wall_nanos_.sum() /
                static_cast<double>(tick_wall_nanos_.count());
  stats.tick_nanos_p50 = tick_wall_nanos_.Quantile(0.5);
  stats.tick_nanos_p99 = tick_wall_nanos_.Quantile(0.99);
  stats.tick_nanos_max = tick_wall_nanos_.max();
  stats.tracker_bytes = tracker_bytes_;
  return stats;
}

void Sampler::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return;
    running_ = true;
    stop_ = false;
  }
  SampleNow();
  if (sim_ != nullptr) {
    // Sim mode: a self-rescheduling timer event replaces the thread. The
    // chain stops itself once `Stop` has flipped `stop_`.
    ScheduleSimTick();
    return;
  }
  thread_ = std::thread([this] { Loop(); });
}

void Sampler::ScheduleSimTick() {
  sim_->ScheduleAt(clock_->NowNanos() + interval_nanos_, [this] {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_ || !running_) return;
    }
    SampleNow();
    ScheduleSimTick();
  });
}

void Sampler::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::nanoseconds(interval_nanos_),
                     [&] { return stop_; })) {
      break;
    }
    lock.unlock();
    SampleNow();
    lock.lock();
  }
}

void Sampler::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    running_ = false;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  SampleNow();
}

std::vector<TelemetrySample> Sampler::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

size_t Sampler::sample_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

}  // namespace deco
