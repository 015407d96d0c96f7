#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "event/event.h"

/// \file root_merger.h
/// \brief Order-preserving k-way merge of the locally sorted streams
/// arriving at a root node.
///
/// Each local node ships its events in local `(timestamp, stream, id)`
/// order over a FIFO link, so the root can merge the per-node queues into
/// the deterministic global order — this *is* the Central ground truth
/// (DESIGN.md §4.1). The merge stalls whenever some non-finished node has
/// an empty queue: the head of that node's stream is unknown, exactly like
/// a watermark holding back processing.
///
/// The merge hands out *runs*: the longest stretch of the leading node's
/// current batch that sorts before every other node's head. Equal events
/// from different nodes go lower node index first, so the output equals a
/// stable sort of the inputs concatenated in node order.

namespace deco {

/// \brief Streaming k-way merge with per-batch creation-time bookkeeping
/// for latency measurement.
class RootMerger {
 public:
  /// \brief Consecutive events of one node's batch, in global order. Points
  /// into the merger's storage and stays valid until the next `NextRun` or
  /// `PopNext` call.
  struct Run {
    const Event* begin = nullptr;
    const Event* end = nullptr;
    size_t node = 0;
    /// The batch's latency side-channel value, shared by its events.
    double create_wall_nanos = 0.0;

    size_t size() const { return static_cast<size_t>(end - begin); }
  };

  explicit RootMerger(size_t num_nodes);

  /// \brief Appends one received batch from `node`. `create_wall_nanos` is
  /// the batch's latency side-channel value, attributed to each event.
  void Append(size_t node, EventVec events, double create_wall_nanos);

  /// \brief Marks `node` as end-of-stream: an empty queue no longer stalls
  /// the merge.
  void MarkEos(size_t node);

  /// \brief Hands out the next run of at most `max_events` events. Returns
  /// false when `max_events` is 0, or the merge is stalled (need more
  /// input) or fully drained.
  bool NextRun(size_t max_events, Run* run);

  /// \brief Pops the next event in global order. Returns false when the
  /// merge is stalled (need more input) or fully drained.
  bool PopNext(Event* event, double* create_wall_nanos, size_t* from_node);

  /// \brief True when every node is EOS and every queue is empty.
  bool Drained() const;

  /// \brief Events currently buffered across all queues.
  size_t buffered() const { return buffered_; }

 private:
  struct Batch {
    EventVec events;
    double create_wall_nanos = 0.0;
  };

  struct NodeQueue {
    std::deque<Batch> batches;
    bool eos = false;
  };

  /// True when node `a`'s head goes before node `b`'s: the smaller event,
  /// ties to the lower node index.
  bool Before(size_t a, size_t b) const;
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);

  std::vector<NodeQueue> nodes_;
  // heads_[n]: node n's next unconsumed event in its front batch, or null
  // when its queue is empty.
  std::vector<const Event*> heads_;
  // Binary min-heap (by `Before`) of the nodes with buffered events.
  std::vector<size_t> heap_;
  // The fully consumed batch the last run ended; keeps that run's events
  // alive until the next call.
  EventVec spent_;
  size_t stalled_ = 0;   // non-EOS nodes with an empty queue
  size_t buffered_ = 0;
};

}  // namespace deco
