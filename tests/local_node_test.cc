#include <gtest/gtest.h>

#include <chrono>

#include "deco/local_node.h"
#include "node/runtime.h"

namespace deco {
namespace {

// Drives one real DecoLocalNode over the fabric from a scripted "root":
// the test body plays the root role, sending assignments and correction
// requests and asserting on the exact messages the local node emits.
class LocalNodeProtocolTest : public ::testing::Test {
 protected:
  static constexpr double kRate = 100'000.0;

  void Start(DecoScheme scheme, uint64_t events = 50'000,
             DecoLocalOptions options = {}, size_t batch_size = 512,
             Clock* clock = SystemClock::Default()) {
    fabric_ = std::make_unique<NetworkFabric>(SystemClock::Default(), 3);
    topology_.root = fabric_->RegisterNode("root");
    topology_.locals = {fabric_->RegisterNode("local")};

    IngestConfig ingest;
    StreamConfig stream;
    stream.stream_id = 0;
    stream.rate.base_rate = kRate;
    stream.rate.change_fraction = 0.0;
    stream.seed = 5;
    ingest.streams.push_back(stream);
    ingest.events_to_produce = events;
    ingest.batch_size = batch_size;

    QueryConfig query;
    query.window = WindowSpec::CountTumbling(10'000);

    local_ = std::make_unique<DecoLocalNode>(
        fabric_.get(), topology_.locals[0], clock, topology_, ingest, query,
        scheme, options);
    local_->Start();
  }

  void TearDown() override {
    if (local_ != nullptr) {
      local_->RequestStop();
      fabric_->Shutdown();
      local_->Join();
    }
  }

  std::optional<Message> ReceiveAtRoot() {
    return fabric_->mailbox(topology_.root)
        ->PopWithTimeout(std::chrono::seconds(5));
  }

  // Receives until a message of `type` arrives; fails the test after a
  // bounded number of other messages.
  std::optional<Message> ReceiveOfType(MessageType type) {
    for (int i = 0; i < 64; ++i) {
      auto msg = ReceiveAtRoot();
      if (!msg.has_value()) return std::nullopt;
      if (msg->type == type) return msg;
    }
    return std::nullopt;
  }

  void SendAssignment(uint64_t w, uint64_t size, uint64_t delta,
                      uint64_t epoch = 0, EventKey wm = EventKey{}) {
    WindowAssignment assignment;
    assignment.window_index = w;
    assignment.local_window_size = size;
    assignment.delta = delta;
    assignment.wm_ts = wm.ts;
    assignment.wm_stream = wm.stream;
    assignment.wm_id = wm.id;
    BinaryWriter writer;
    EncodeWindowAssignment(assignment, &writer);
    Message msg;
    msg.type = MessageType::kWindowAssignment;
    msg.src = topology_.root;
    msg.dst = topology_.locals[0];
    msg.window_index = w;
    msg.epoch = epoch;
    msg.payload = writer.Release();
    ASSERT_TRUE(fabric_->Send(std::move(msg)).ok());
  }

  // Decodes the next correction response.
  CorrectionResponse ReceiveCorrection(Message* msg) {
    auto received = ReceiveOfType(MessageType::kCorrectionResult);
    EXPECT_TRUE(received.has_value());
    if (!received.has_value()) return {};
    *msg = std::move(*received);
    BinaryReader reader(msg->payload);
    return DecodeCorrectionResponse(&reader).value();
  }

  void SendCorrectionRequest(uint64_t w, uint64_t topup, uint64_t epoch) {
    CorrectionRequest request;
    request.window_index = w;
    request.topup_events = topup;
    BinaryWriter writer;
    EncodeCorrectionRequest(request, &writer);
    Message msg;
    msg.type = MessageType::kCorrectionRequest;
    msg.src = topology_.root;
    msg.dst = topology_.locals[0];
    msg.window_index = w;
    msg.epoch = epoch;
    msg.payload = writer.Release();
    ASSERT_TRUE(fabric_->Send(std::move(msg)).ok());
  }

  std::unique_ptr<NetworkFabric> fabric_;
  Topology topology_;
  std::unique_ptr<DecoLocalNode> local_;
};

TEST_F(LocalNodeProtocolTest, ReportsRateOnStartup) {
  Start(DecoScheme::kSync);
  auto msg = ReceiveOfType(MessageType::kEventRate);
  ASSERT_TRUE(msg.has_value());
  BinaryReader reader(msg->payload);
  const RateReport report = DecodeRateReport(&reader).value();
  EXPECT_EQ(report.window_index, 0u);
  EXPECT_NEAR(report.event_rate, kRate, 1.0);
  EXPECT_EQ(report.stream_position, 0u);
}

TEST_F(LocalNodeProtocolTest, SyncWindowShipsSliceAndEndBuffer) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);

  // Sync layout: slice = 5000-100 = 4900, end buffer = 200.
  auto slice = ReceiveOfType(MessageType::kPartialResult);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->window_index, 0u);
  BinaryReader reader(slice->payload);
  const SliceSummary summary = DecodeSliceSummary(&reader).value();
  EXPECT_EQ(summary.event_count, 4900u);
  EXPECT_GT(summary.max_ts, summary.min_ts);
  EXPECT_NEAR(summary.event_rate, kRate, 1.0);
  EXPECT_EQ(slice->lat_event_count, 4900u);

  auto end = ReceiveOfType(MessageType::kEventBatch);
  ASSERT_TRUE(end.has_value());
  BinaryReader end_reader(end->payload);
  const EventBatchPayload batch = DecodeEventBatch(&end_reader).value();
  EXPECT_EQ(batch.role, BatchRole::kEnd);
  EXPECT_EQ(batch.events.size(), 200u);
  // The end buffer continues exactly where the slice stopped.
  EXPECT_GT(batch.events.front().timestamp, summary.max_ts);
}

TEST_F(LocalNodeProtocolTest, SyncBlocksUntilNextAssignment) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventBatch).has_value());
  // No assignment for window 1: the synchronous local node must wait.
  // While blocked it sends nothing but liveness heartbeats (kEventRate,
  // every heartbeat_nanos) — never data for an unassigned window.
  for (int i = 0; i < 3; ++i) {
    auto extra = fabric_->mailbox(topology_.root)
                     ->PopWithTimeout(std::chrono::milliseconds(100));
    if (!extra.has_value()) continue;
    EXPECT_EQ(extra->type, MessageType::kEventRate)
        << "blocked node sent " << MessageTypeToString(extra->type);
  }
  // Assignment arrives: window 1 flows.
  SendAssignment(1, 5000, 100);
  EXPECT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
}

TEST_F(LocalNodeProtocolTest, AsyncPipelinesWithoutWaiting) {
  DecoLocalOptions options;
  options.max_unverified_windows = 3;
  Start(DecoScheme::kAsync, 50'000, options);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  // Without any further assignment the async node produces windows
  // 0..max_unverified ahead; each window ships slice + end (plus fronts
  // for steady-state windows). The first heartbeat (kEventRate after the
  // startup report) is the positive signal that the node hit the
  // pipeline cap and blocked.
  int slices = 0;
  while (true) {
    auto msg = fabric_->mailbox(topology_.root)
                   ->PopWithTimeout(std::chrono::milliseconds(300));
    if (!msg.has_value()) break;
    if (msg->type == MessageType::kEventRate) break;  // blocked: heartbeat
    if (msg->type == MessageType::kPartialResult) ++slices;
  }
  EXPECT_GE(slices, 3);
  EXPECT_LE(slices, 5);  // bounded by the pipeline cap
}

TEST_F(LocalNodeProtocolTest, AsyncFirstWindowIsSlackLayout) {
  Start(DecoScheme::kAsync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  // Slack layout has no front buffer; its first data message is the slice.
  auto first = ReceiveOfType(MessageType::kPartialResult);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->window_index, 0u);
  // Window 1 (steady async layout) starts with a front buffer.
  std::optional<Message> front;
  for (int i = 0; i < 32; ++i) {
    auto msg = ReceiveAtRoot();
    ASSERT_TRUE(msg.has_value());
    if (msg->type == MessageType::kEventBatch && msg->window_index == 1) {
      front = msg;
      break;
    }
  }
  ASSERT_TRUE(front.has_value());
  BinaryReader reader(front->payload);
  EXPECT_EQ(DecodeEventBatch(&reader).value().role, BatchRole::kFront);
}

TEST_F(LocalNodeProtocolTest, CorrectionResendsFullRetainedRegion) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventBatch).has_value());

  SendCorrectionRequest(0, 0, /*epoch=*/1);
  auto response_msg = ReceiveOfType(MessageType::kCorrectionResult);
  ASSERT_TRUE(response_msg.has_value());
  EXPECT_EQ(response_msg->epoch, 1u);  // echoes the request epoch
  BinaryReader reader(response_msg->payload);
  const CorrectionResponse response =
      DecodeCorrectionResponse(&reader).value();
  // Retained = the produced region (5100 events) rounded up to whole
  // ingest batches (512): events are pulled batch-wise into retention.
  EXPECT_EQ(response.events.size(), 5120u);
  EXPECT_EQ(response.from_offset, 0u);
  EXPECT_FALSE(response.end_of_stream);
}

TEST_F(LocalNodeProtocolTest, CorrectionTopUpPullsFreshEvents) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventBatch).has_value());

  SendCorrectionRequest(0, 0, 1);
  ASSERT_TRUE(ReceiveOfType(MessageType::kCorrectionResult).has_value());
  SendCorrectionRequest(0, 300, 1);
  auto topup_msg = ReceiveOfType(MessageType::kCorrectionResult);
  ASSERT_TRUE(topup_msg.has_value());
  BinaryReader reader(topup_msg->payload);
  const CorrectionResponse topup =
      DecodeCorrectionResponse(&reader).value();
  // Top-ups are served in whole ingest batches (>= the requested count).
  EXPECT_GE(topup.events.size(), 300u);
  EXPECT_EQ(topup.from_offset, 5120u);
}

TEST_F(LocalNodeProtocolTest, RollbackReplansFromWatermark) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  auto end = ReceiveOfType(MessageType::kEventBatch);
  ASSERT_TRUE(end.has_value());
  BinaryReader end_reader(end->payload);
  const EventBatchPayload end_batch = DecodeEventBatch(&end_reader).value();

  // Pretend the correction consumed exactly 5000 events; the watermark is
  // the key of the 5000th event (the 100th event of the end buffer).
  const Event& cut = end_batch.events[99];
  SendCorrectionRequest(0, 0, 1);
  ASSERT_TRUE(ReceiveOfType(MessageType::kCorrectionResult).has_value());
  SendAssignment(1, 5000, 100, /*epoch=*/1,
                 EventKey{cut.timestamp, cut.stream_id, cut.id});

  // The re-planned window 1 must start right after the watermark: its
  // slice begins with the 101st end-buffer event.
  auto slice = ReceiveOfType(MessageType::kPartialResult);
  ASSERT_TRUE(slice.has_value());
  EXPECT_EQ(slice->window_index, 1u);
  BinaryReader reader(slice->payload);
  const SliceSummary summary = DecodeSliceSummary(&reader).value();
  EXPECT_EQ(summary.min_ts, end_batch.events[100].timestamp);
}

TEST_F(LocalNodeProtocolTest, EndOfStreamAnnounced) {
  Start(DecoScheme::kSync, /*events=*/6000);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);  // region 5100 < 6000
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  SendAssignment(1, 5000, 100);  // second window exhausts the budget
  auto slice = ReceiveOfType(MessageType::kPartialResult);
  ASSERT_TRUE(slice.has_value());
  BinaryReader reader(slice->payload);
  // Only 900 events remain for the 4900-event slice.
  EXPECT_EQ(DecodeSliceSummary(&reader).value().event_count, 900u);
  EXPECT_TRUE(ReceiveOfType(MessageType::kShutdown).has_value());
}

TEST_F(LocalNodeProtocolTest, MonSendsRateReportPerWindow) {
  Start(DecoScheme::kMon);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  // After producing window 0, mon reports the rate for window 1 without
  // needing any prompt (the initialization up-flow of the next window).
  auto report_msg = ReceiveOfType(MessageType::kEventRate);
  ASSERT_TRUE(report_msg.has_value());
  BinaryReader reader(report_msg->payload);
  EXPECT_EQ(DecodeRateReport(&reader).value().window_index, 1u);
}

// Regression: the watermark of a normal (non-rollback) assignment must
// never drop retained events that were not yet produced into regions —
// they would be lost for future correction resends. Conversely a
// rollback assignment (higher epoch) trims everything at or below the
// watermark, because the corrected window consumed it from the complete
// candidate streams; leaving it would re-produce duplicates.
TEST_F(LocalNodeProtocolTest, RollbackTrimsConsumedEventsExactly) {
  Start(DecoScheme::kSync);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  SendAssignment(0, 5000, 100);
  ASSERT_TRUE(ReceiveOfType(MessageType::kPartialResult).has_value());
  auto end = ReceiveOfType(MessageType::kEventBatch);
  ASSERT_TRUE(end.has_value());
  BinaryReader end_reader(end->payload);
  const EventBatchPayload end_batch = DecodeEventBatch(&end_reader).value();

  // Correct window 0 consuming 4950 events; rollback assignment carries
  // the cut key and the bumped epoch.
  SendCorrectionRequest(0, 0, 1);
  ASSERT_TRUE(ReceiveOfType(MessageType::kCorrectionResult).has_value());
  const Event& cut = end_batch.events[49];  // slice 4900 + 50
  SendAssignment(1, 5000, 100, /*epoch=*/1,
                 EventKey{cut.timestamp, cut.stream_id, cut.id});

  // Window 1's slice must start at exactly the first unconsumed event; a
  // double-consumed (or lost) event would shift its first timestamp.
  auto slice = ReceiveOfType(MessageType::kPartialResult);
  ASSERT_TRUE(slice.has_value());
  BinaryReader reader(slice->payload);
  const SliceSummary summary = DecodeSliceSummary(&reader).value();
  EXPECT_EQ(summary.min_ts, end_batch.events[50].timestamp);

  // And a second correction must resend a region whose size reflects the
  // trim: everything retained minus the 4950 consumed events.
  SendCorrectionRequest(1, 0, 2);
  auto resend_msg = ReceiveOfType(MessageType::kCorrectionResult);
  ASSERT_TRUE(resend_msg.has_value());
  BinaryReader resend_reader(resend_msg->payload);
  const CorrectionResponse resend =
      DecodeCorrectionResponse(&resend_reader).value();
  EXPECT_EQ(resend.from_offset, 4950u);
}

// Batch-boundary coverage: with ingest batch 7 and window 20 (coprime),
// regions, watermark drops, rollbacks and correction regions all start and
// end mid-batch. The test holds a manual clock and moves it before each
// step, so every batch pulled in a step carries that step's creation stamp;
// each region's latency side channel must equal the per-event mean of its
// events' stamps, and every shipped event must be the next one in the
// stream (single stream: an event's id is its stream offset).
class LocalNodeBatchBoundaryTest : public LocalNodeProtocolTest {
 protected:
  static constexpr size_t kBatch = 7;
  static constexpr uint64_t kBudget = 100;  // 14 full batches + 2 events

  // Creation stamp of each pulled batch, in pull order (see the steps).
  static constexpr TimeNanos kBatchStamps[] = {
      1000, 1000, 1000, 1000, 2000, 2000, 2000, 3000,
      3000, 5000, 5000, 6000, 6000, 6000, 6000};

  // Per-event mean creation time of stream offsets [from, to).
  static double PerEventMean(uint64_t from, uint64_t to) {
    double sum = 0.0;
    for (uint64_t k = from; k < to; ++k) {
      sum += static_cast<double>(kBatchStamps[k / kBatch]);
    }
    return sum / static_cast<double>(to - from);
  }

  static void ExpectLatency(const Message& msg, uint64_t from, uint64_t to) {
    EXPECT_EQ(msg.lat_event_count, to - from) << "[" << from << "," << to
                                              << ")";
    if (to > from) {
      EXPECT_NEAR(msg.lat_mean_create_nanos, PerEventMean(from, to), 1.0)
          << "[" << from << "," << to << ")";
    }
  }

  static void ExpectEvents(const EventVec& events, uint64_t from,
                           uint64_t to) {
    ASSERT_EQ(events.size(), to - from) << "[" << from << "," << to << ")";
    for (size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(events[i].id, from + i);
    }
  }

  // Receives window `w`'s sync slice and end buffer and checks they cover
  // offsets [from, from + 17) and [from + 17, from + 23).
  void ExpectSyncWindow(uint64_t w, uint64_t from) {
    auto slice = ReceiveOfType(MessageType::kPartialResult);
    ASSERT_TRUE(slice.has_value());
    EXPECT_EQ(slice->window_index, w);
    BinaryReader reader(slice->payload);
    const SliceSummary summary = DecodeSliceSummary(&reader).value();
    EXPECT_EQ(summary.event_count, 17u);
    EXPECT_EQ(summary.max_event_id, from + 16);
    ExpectLatency(*slice, from, from + 17);

    auto end = ReceiveOfType(MessageType::kEventBatch);
    ASSERT_TRUE(end.has_value());
    EXPECT_EQ(end->window_index, w);
    BinaryReader end_reader(end->payload);
    const EventBatchPayload batch = DecodeEventBatch(&end_reader).value();
    EXPECT_EQ(batch.role, BatchRole::kEnd);
    ExpectEvents(batch.events, from + 17, from + 23);
    ExpectLatency(*end, from + 17, from + 23);
  }

  // Sets the clock to the creation stamp the next pulls get.
  void At(TimeNanos t) { clock_.SetNanos(t); }

  ManualClock clock_{1000};
};

TEST_F(LocalNodeBatchBoundaryTest, RegionsSpanBatchesWithBatchStamps) {
  Start(DecoScheme::kSync, kBudget, {}, kBatch, &clock_);
  ASSERT_TRUE(ReceiveOfType(MessageType::kEventRate).has_value());
  // Sync layout for size 20, delta 3: slice 17 + end buffer 6.

  // Window 0 pulls batches 0-3 (offsets 0-27) at t=1000.
  SendAssignment(0, 20, 3);
  ExpectSyncWindow(0, 0);

  // Keep the end buffer's events: their keys are the watermarks below.
  SendCorrectionRequest(0, 0, /*epoch=*/1);
  Message msg;
  CorrectionResponse response = ReceiveCorrection(&msg);
  ExpectEvents(response.events, 0, 28);
  ExpectLatency(msg, 0, 28);
  const Event e19 = response.events[19];

  // Window 1: the watermark drops offsets 0-19 (batches 0 and 1 drained,
  // batch 2 cut mid-way); the region 23-45 straddles batch 3 (t=1000) and
  // batches 4-6 pulled at t=2000.
  At(2000);
  SendAssignment(1, 20, 3, /*epoch=*/0,
                 EventKey{e19.timestamp, e19.stream_id, e19.id});
  ExpectSyncWindow(1, 23);

  // Full resend: everything retained, from mid-batch offset 20.
  At(3000);
  SendCorrectionRequest(1, 0, /*epoch=*/1);
  response = ReceiveCorrection(&msg);
  EXPECT_EQ(response.from_offset, 20u);
  ExpectEvents(response.events, 20, 49);
  ExpectLatency(msg, 20, 49);
  const Event e30 = response.events[10];
  ASSERT_EQ(e30.id, 30u);

  // Top-up into recycled buffers: two whole batches (49-62) at t=3000.
  SendCorrectionRequest(1, 10, /*epoch=*/1);
  response = ReceiveCorrection(&msg);
  EXPECT_EQ(response.from_offset, 49u);
  ExpectEvents(response.events, 49, 63);
  ExpectLatency(msg, 49, 63);
  EXPECT_FALSE(response.end_of_stream);

  // Rollback to offset 30 (mid-batch 4): window 1 is re-planned from 31
  // without pulling; its end buffer straddles t=2000 and t=3000 batches.
  At(4000);
  SendAssignment(1, 20, 3, /*epoch=*/1,
                 EventKey{e30.timestamp, e30.stream_id, e30.id});
  ExpectSyncWindow(1, 31);

  // Window 2: offsets 54-62 were pulled at t=3000, 63-76 at t=5000.
  At(5000);
  SendAssignment(2, 20, 3, /*epoch=*/1);
  ExpectSyncWindow(2, 54);

  // Window 3 ends exactly at the budget, in the short final batch (98-99).
  At(6000);
  SendAssignment(3, 20, 3, /*epoch=*/1);
  ExpectSyncWindow(3, 77);
  EXPECT_TRUE(ReceiveOfType(MessageType::kShutdown).has_value());

  // Resend after the budget end: every retained batch run, short one
  // included; a top-up finds nothing left.
  At(7000);
  SendCorrectionRequest(3, 0, /*epoch=*/2);
  response = ReceiveCorrection(&msg);
  EXPECT_EQ(response.from_offset, 31u);
  ExpectEvents(response.events, 31, kBudget);
  ExpectLatency(msg, 31, kBudget);
  EXPECT_TRUE(response.end_of_stream);

  SendCorrectionRequest(3, 5, /*epoch=*/2);
  response = ReceiveCorrection(&msg);
  EXPECT_EQ(response.from_offset, kBudget);
  EXPECT_TRUE(response.events.empty());
  EXPECT_EQ(msg.lat_event_count, 0u);
  EXPECT_TRUE(response.end_of_stream);
}

}  // namespace
}  // namespace deco
