#include "baseline/root_merger.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace deco {

// Invariants:
//  - a node is in `heap_` iff its `heads_` entry is non-null, i.e. it has
//    at least one unconsumed buffered event (NextRun eagerly drops fully
//    consumed batches);
//  - `stalled_` counts nodes that are neither EOS nor in the heap.

RootMerger::RootMerger(size_t num_nodes)
    : nodes_(num_nodes), heads_(num_nodes, nullptr), stalled_(num_nodes) {
  heap_.reserve(num_nodes);
}

bool RootMerger::Before(size_t a, size_t b) const {
  const EventTimestampLess less;
  if (less(*heads_[a], *heads_[b])) return true;
  return !less(*heads_[b], *heads_[a]) && a < b;
}

void RootMerger::SiftUp(size_t pos) {
  const size_t node = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Before(node, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = node;
}

void RootMerger::SiftDown(size_t pos) {
  const size_t node = heap_[pos];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], node)) break;
    heap_[pos] = heap_[child];
    pos = child;
  }
  heap_[pos] = node;
}

void RootMerger::Append(size_t node, EventVec events,
                        double create_wall_nanos) {
  if (events.empty()) return;
  NodeQueue& q = nodes_[node];
  buffered_ += events.size();
  q.batches.push_back(Batch{std::move(events), create_wall_nanos});
  if (heads_[node] == nullptr) {
    heads_[node] = q.batches.front().events.data();
    heap_.push_back(node);
    SiftUp(heap_.size() - 1);
    if (!q.eos) {
      assert(stalled_ > 0);
      --stalled_;
    }
  }
}

void RootMerger::MarkEos(size_t node) {
  NodeQueue& q = nodes_[node];
  if (q.eos) return;
  q.eos = true;
  if (q.batches.empty()) {
    // The node was counted as stalled; it no longer holds the merge back.
    assert(stalled_ > 0);
    --stalled_;
  }
}

bool RootMerger::NextRun(size_t max_events, Run* run) {
  if (stalled_ > 0 || heap_.empty() || max_events == 0) return false;
  const size_t node = heap_.front();
  NodeQueue& q = nodes_[node];
  Batch& batch = q.batches.front();
  const Event* begin = heads_[node];
  const Event* batch_end = batch.events.data() + batch.events.size();
  const Event* limit =
      begin + std::min(max_events, static_cast<size_t>(batch_end - begin));

  // The run extends while the node's events go before the runner-up's
  // head, the smaller of the heap root's two children.
  const Event* end = limit;
  if (heap_.size() > 1) {
    size_t runner = heap_[1];
    if (heap_.size() > 2 && Before(heap_[2], runner)) runner = heap_[2];
    const Event& bound = *heads_[runner];
    const EventTimestampLess less;
    end = begin + 1;  // the heap root's head always goes first
    if (node < runner) {
      while (end != limit && !less(bound, *end)) ++end;
    } else {
      while (end != limit && less(*end, bound)) ++end;
    }
  }

  run->begin = begin;
  run->end = end;
  run->node = node;
  run->create_wall_nanos = batch.create_wall_nanos;
  buffered_ -= run->size();
  if (end != batch_end) {
    heads_[node] = end;
    SiftDown(0);
    return true;
  }
  spent_ = std::move(batch.events);  // the run still points into it
  q.batches.pop_front();
  if (!q.batches.empty()) {
    heads_[node] = q.batches.front().events.data();
    SiftDown(0);
    return true;
  }
  heads_[node] = nullptr;
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
  if (!q.eos) ++stalled_;
  return true;
}

bool RootMerger::PopNext(Event* event, double* create_wall_nanos,
                         size_t* from_node) {
  Run run;
  if (!NextRun(1, &run)) return false;
  *event = *run.begin;
  *create_wall_nanos = run.create_wall_nanos;
  *from_node = run.node;
  return true;
}

bool RootMerger::Drained() const {
  if (buffered_ > 0) return false;
  for (const NodeQueue& q : nodes_) {
    if (!q.eos) return false;
  }
  return true;
}

}  // namespace deco
