#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "baseline/root_merger.h"
#include "common/random.h"

namespace deco {
namespace {

Event MakeEvent(EventId id, StreamId stream, EventTime ts) {
  Event e;
  e.id = id;
  e.stream_id = stream;
  e.value = 1.0;
  e.timestamp = ts;
  return e;
}

TEST(RootMergerTest, StallsUntilEveryNodeHasInput) {
  RootMerger merger(2);
  merger.Append(0, {MakeEvent(0, 0, 10)}, 0.0);
  Event e;
  double create = 0;
  size_t node = 0;
  EXPECT_FALSE(merger.PopNext(&e, &create, &node));  // node 1 unknown
  merger.Append(1, {MakeEvent(0, 1, 15)}, 0.0);
  EXPECT_TRUE(merger.PopNext(&e, &create, &node));
  EXPECT_EQ(e.timestamp, 10);
  EXPECT_EQ(node, 0u);
  // Node 0's queue is now empty: merge stalls again.
  EXPECT_FALSE(merger.PopNext(&e, &create, &node));
}

TEST(RootMergerTest, EosUnblocksEmptyQueue) {
  RootMerger merger(2);
  merger.Append(0, {MakeEvent(0, 0, 10), MakeEvent(1, 0, 20)}, 0.0);
  merger.MarkEos(1);  // node 1 will never send anything
  Event e;
  double create = 0;
  size_t node = 0;
  EXPECT_TRUE(merger.PopNext(&e, &create, &node));
  EXPECT_TRUE(merger.PopNext(&e, &create, &node));
  EXPECT_FALSE(merger.PopNext(&e, &create, &node));
  merger.MarkEos(0);
  EXPECT_TRUE(merger.Drained());
}

TEST(RootMergerTest, AppendAfterEosStillMerges) {
  // The final batch of a node may arrive together with its EOS marker;
  // events appended before/after MarkEos must still drain.
  RootMerger merger(1);
  merger.Append(0, {MakeEvent(0, 0, 5)}, 0.0);
  merger.MarkEos(0);
  Event e;
  double create = 0;
  size_t node = 0;
  EXPECT_TRUE(merger.PopNext(&e, &create, &node));
  EXPECT_TRUE(merger.Drained());
}

TEST(RootMergerTest, GlobalOrderAcrossBatches) {
  RootMerger merger(3);
  // Interleaved timestamps across nodes, multiple batches per node.
  merger.Append(0, {MakeEvent(0, 0, 1), MakeEvent(1, 0, 4)}, 0.0);
  merger.Append(0, {MakeEvent(2, 0, 7)}, 0.0);
  merger.Append(1, {MakeEvent(0, 1, 2), MakeEvent(1, 1, 5)}, 0.0);
  merger.Append(2, {MakeEvent(0, 2, 3), MakeEvent(1, 2, 6)}, 0.0);
  merger.MarkEos(0);
  merger.MarkEos(1);
  merger.MarkEos(2);
  Event e;
  double create = 0;
  size_t node = 0;
  EventTime expected = 1;
  while (merger.PopNext(&e, &create, &node)) {
    EXPECT_EQ(e.timestamp, expected++);
  }
  EXPECT_EQ(expected, 8);
  EXPECT_TRUE(merger.Drained());
}

TEST(RootMergerTest, TimestampTiesBreakByStreamThenId) {
  RootMerger merger(2);
  merger.Append(0, {MakeEvent(5, 1, 10)}, 0.0);
  merger.Append(1, {MakeEvent(3, 0, 10)}, 0.0);
  merger.MarkEos(0);
  merger.MarkEos(1);
  Event e;
  double create = 0;
  size_t node = 0;
  ASSERT_TRUE(merger.PopNext(&e, &create, &node));
  EXPECT_EQ(e.stream_id, 0u);  // lower stream id first on equal timestamps
}

TEST(RootMergerTest, CreateTimesTravelWithBatches) {
  RootMerger merger(1);
  merger.Append(0, {MakeEvent(0, 0, 1)}, 111.0);
  merger.Append(0, {MakeEvent(1, 0, 2)}, 222.0);
  merger.MarkEos(0);
  Event e;
  double create = 0;
  size_t node = 0;
  ASSERT_TRUE(merger.PopNext(&e, &create, &node));
  EXPECT_DOUBLE_EQ(create, 111.0);
  ASSERT_TRUE(merger.PopNext(&e, &create, &node));
  EXPECT_DOUBLE_EQ(create, 222.0);
}

TEST(RootMergerTest, BufferedCountTracksContents) {
  RootMerger merger(2);
  EXPECT_EQ(merger.buffered(), 0u);
  merger.Append(0, {MakeEvent(0, 0, 1), MakeEvent(1, 0, 2)}, 0.0);
  EXPECT_EQ(merger.buffered(), 2u);
  merger.Append(1, {MakeEvent(0, 1, 3)}, 0.0);
  Event e;
  double create = 0;
  size_t node = 0;
  ASSERT_TRUE(merger.PopNext(&e, &create, &node));
  EXPECT_EQ(merger.buffered(), 2u);
}

TEST(RootMergerTest, EmptyAppendIsNoop) {
  RootMerger merger(1);
  merger.Append(0, {}, 0.0);
  EXPECT_EQ(merger.buffered(), 0u);
  merger.MarkEos(0);
  EXPECT_TRUE(merger.Drained());
}

TEST(RootMergerTest, RunsStopAtTheRunnerUpAndTheLimit) {
  RootMerger merger(2);
  merger.Append(0, {MakeEvent(0, 0, 1), MakeEvent(1, 0, 2),
                    MakeEvent(2, 0, 3), MakeEvent(3, 0, 9)},
                7.0);
  merger.Append(1, {MakeEvent(0, 1, 3), MakeEvent(1, 1, 4)}, 8.0);
  merger.MarkEos(0);
  merger.MarkEos(1);
  RootMerger::Run run;
  ASSERT_TRUE(merger.NextRun(2, &run));  // capped by the limit
  EXPECT_EQ(run.size(), 2u);
  EXPECT_EQ(run.node, 0u);
  EXPECT_DOUBLE_EQ(run.create_wall_nanos, 7.0);
  ASSERT_TRUE(merger.NextRun(100, &run));  // (3, stream 0) before (3, 1)
  EXPECT_EQ(run.size(), 1u);
  EXPECT_EQ(run.begin->timestamp, 3);
  ASSERT_TRUE(merger.NextRun(100, &run));  // node 1 runs out first
  EXPECT_EQ(run.node, 1u);
  EXPECT_EQ(run.size(), 2u);
  EXPECT_DOUBLE_EQ(run.create_wall_nanos, 8.0);
  ASSERT_TRUE(merger.NextRun(100, &run));
  EXPECT_EQ(run.begin->timestamp, 9);
  EXPECT_FALSE(merger.NextRun(100, &run));
  EXPECT_FALSE(merger.NextRun(0, &run));
  EXPECT_TRUE(merger.Drained());
}

// ------------------------------------------------ Property test vs a sort

// One merged event with where it came from, compared field by field.
struct Tagged {
  Event event;
  size_t node = 0;
  double create = 0.0;

  friend bool operator==(const Tagged& a, const Tagged& b) {
    return a.event == b.event && a.node == b.node && a.create == b.create;
  }
};

struct NodeInput {
  std::vector<EventVec> batches;  // some of them empty
  std::vector<double> creates;    // one creation stamp per batch
};

// Events with heavy ties: timestamps from a small range, few streams and
// few ids, so equal timestamps across nodes and streams are common and
// fully equal events across nodes occur. Each node's events are sorted
// (as a local ships them) and split at random points, empty batches
// included. Values are unique so every event is identifiable.
std::vector<NodeInput> MakeInputs(size_t k, Rng* rng) {
  std::vector<NodeInput> inputs(k);
  double value = 0.0;
  for (size_t n = 0; n < k; ++n) {
    EventVec events(rng->NextInt(0, 60));
    for (Event& e : events) {
      e.timestamp = rng->NextInt(0, 40);
      e.stream_id = static_cast<StreamId>(rng->NextInt(0, 2));
      e.id = static_cast<EventId>(rng->NextInt(0, 3));
      e.value = value++;
    }
    std::stable_sort(events.begin(), events.end(), EventTimestampLess());
    size_t pos = 0;
    while (true) {
      const size_t take = std::min<size_t>(rng->NextInt(0, 12),
                                           events.size() - pos);
      inputs[n].batches.emplace_back(events.begin() + pos,
                                     events.begin() + pos + take);
      inputs[n].creates.push_back(static_cast<double>(n * 1000 +
                                                      inputs[n].batches.size()));
      pos += take;
      if (pos == events.size() && rng->NextInt(0, 1) == 0) break;
    }
  }
  return inputs;
}

// The independent reference: every event tagged with its node and batch
// stamp, concatenated in node order, then stable-sorted.
std::vector<Tagged> SortedReference(const std::vector<NodeInput>& inputs) {
  std::vector<Tagged> all;
  for (size_t n = 0; n < inputs.size(); ++n) {
    for (size_t b = 0; b < inputs[n].batches.size(); ++b) {
      for (const Event& e : inputs[n].batches[b]) {
        all.push_back(Tagged{e, n, inputs[n].creates[b]});
      }
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& a, const Tagged& b) {
                     return EventTimestampLess()(a.event, b.event);
                   });
  return all;
}

// Drives one merge with a random interleaving of appends, end-of-stream
// marks and drains (runs with random limits, or single pops), and checks
// every run's shape, the stall rule and the final output.
void CheckRandomMerge(size_t k, uint64_t seed) {
  SCOPED_TRACE("k=" + std::to_string(k) + " seed=" + std::to_string(seed));
  Rng rng(seed);
  const std::vector<NodeInput> inputs = MakeInputs(k, &rng);
  const std::vector<Tagged> expected = SortedReference(inputs);

  RootMerger merger(k);
  std::vector<size_t> next_batch(k, 0);
  std::vector<bool> eos(k, false);
  std::vector<size_t> held(k, 0);  // appended but not yet merged out
  std::vector<Tagged> out;

  const auto drain = [&] {
    while (true) {
      if (rng.NextInt(0, 3) == 0) {
        Event e;
        double create = 0.0;
        size_t node = 0;
        if (!merger.PopNext(&e, &create, &node)) break;
        ASSERT_LT(node, k);
        ASSERT_GT(held[node], 0u);
        --held[node];
        out.push_back(Tagged{e, node, create});
        continue;
      }
      const size_t limit = rng.NextInt(1, 16);
      RootMerger::Run run;
      if (!merger.NextRun(limit, &run)) break;
      ASSERT_LT(run.node, k);
      ASSERT_GE(run.size(), 1u);
      ASSERT_LE(run.size(), limit);
      ASSERT_LE(run.size(), held[run.node]);
      held[run.node] -= run.size();
      for (const Event* e = run.begin; e != run.end; ++e) {
        out.push_back(Tagged{*e, run.node, run.create_wall_nanos});
      }
    }
    // The merge stops only when some unfinished node holds nothing (its
    // next event is unknown) or nothing is held at all.
    bool blocked = false;
    size_t total = 0;
    for (size_t n = 0; n < k; ++n) {
      blocked |= !eos[n] && held[n] == 0;
      total += held[n];
    }
    EXPECT_TRUE(blocked || total == 0);
    EXPECT_EQ(merger.buffered(), total);
  };

  const auto append_next = [&](size_t n) {
    const size_t b = next_batch[n]++;
    held[n] += inputs[n].batches[b].size();
    merger.Append(n, inputs[n].batches[b], inputs[n].creates[b]);
  };

  while (true) {
    std::vector<size_t> open;
    for (size_t n = 0; n < k; ++n) {
      if (!eos[n]) open.push_back(n);
    }
    if (open.empty()) break;
    const size_t n = open[rng.NextInt(0, open.size() - 1)];
    const size_t left = inputs[n].batches.size() - next_batch[n];
    if (left == 1 && rng.NextInt(0, 1) == 0) {
      // End of stream announced just before the last batch lands, with no
      // drain in between (the two arrive in one message).
      eos[n] = true;
      merger.MarkEos(n);
      append_next(n);
    } else if (left == 0) {
      eos[n] = true;
      merger.MarkEos(n);
    } else {
      append_next(n);
    }
    if (rng.NextInt(0, 2) == 0) drain();
    if (::testing::Test::HasFatalFailure()) return;
  }
  drain();
  EXPECT_TRUE(merger.Drained());
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], expected[i])
        << "position " << i << ": got " << ToString(out[i].event) << " from "
        << out[i].node << ", want " << ToString(expected[i].event)
        << " from " << expected[i].node;
  }
}

TEST(RootMergerPropertyTest, MatchesStableSortOfTheInputs) {
  for (size_t k : {1, 2, 3, 7, 64}) {
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      CheckRandomMerge(k, seed * 7919 + k);
      if (HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace deco
