#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "event/event.h"
#include "event/serde.h"

namespace deco {
namespace {

Event MakeEvent(EventId id, StreamId stream, double value, EventTime ts) {
  Event e;
  e.id = id;
  e.stream_id = stream;
  e.value = value;
  e.timestamp = ts;
  return e;
}

// ------------------------------------------------------------- Ordering

TEST(EventOrderTest, OrdersByTimestampFirst) {
  EventTimestampLess less;
  EXPECT_TRUE(less(MakeEvent(5, 3, 0, 10), MakeEvent(1, 0, 0, 20)));
  EXPECT_FALSE(less(MakeEvent(1, 0, 0, 20), MakeEvent(5, 3, 0, 10)));
}

TEST(EventOrderTest, TiesBreakByStreamThenId) {
  EventTimestampLess less;
  // Same timestamp: lower stream id wins.
  EXPECT_TRUE(less(MakeEvent(9, 1, 0, 10), MakeEvent(0, 2, 0, 10)));
  // Same timestamp and stream: lower event id wins.
  EXPECT_TRUE(less(MakeEvent(3, 1, 0, 10), MakeEvent(4, 1, 0, 10)));
  // Identical keys are not less than each other.
  EXPECT_FALSE(less(MakeEvent(3, 1, 0, 10), MakeEvent(3, 1, 0, 10)));
}

TEST(EventOrderTest, IsStrictWeakOrderOnSample) {
  EventTimestampLess less;
  std::vector<Event> events;
  for (EventTime ts : {10, 20}) {
    for (StreamId s : {0u, 1u}) {
      for (EventId id : {0u, 1u}) {
        events.push_back(MakeEvent(id, s, 0, ts));
      }
    }
  }
  std::sort(events.begin(), events.end(), less);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_FALSE(less(events[i], events[i - 1]));
  }
}

TEST(EventTest, ToStringMentionsFields) {
  const std::string s = ToString(MakeEvent(7, 2, 3.5, 99));
  EXPECT_NE(s.find("id=7"), std::string::npos);
  EXPECT_NE(s.find("stream=2"), std::string::npos);
  EXPECT_NE(s.find("ts=99"), std::string::npos);
}

// --------------------------------------------------------- Binary serde

TEST(BinarySerdeTest, PrimitiveRoundTrip) {
  BinaryWriter writer;
  writer.PutU8(200);
  writer.PutU32(123456);
  writer.PutU64(1ull << 60);
  writer.PutI64(-42);
  writer.PutDouble(3.25);
  writer.PutString("hello");

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.GetU8().value(), 200);
  EXPECT_EQ(reader.GetU32().value(), 123456u);
  EXPECT_EQ(reader.GetU64().value(), 1ull << 60);
  EXPECT_EQ(reader.GetI64().value(), -42);
  EXPECT_DOUBLE_EQ(reader.GetDouble().value(), 3.25);
  EXPECT_EQ(reader.GetString().value(), "hello");
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinarySerdeTest, EventRoundTrip) {
  const Event e = MakeEvent(17, 4, -1.5, 123456789);
  BinaryWriter writer;
  writer.PutEvent(e);
  EXPECT_EQ(writer.size(), kBinaryEventSize);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.GetEvent().value(), e);
}

TEST(BinarySerdeTest, EventBatchRoundTrip) {
  EventVec events;
  for (int i = 0; i < 100; ++i) {
    events.push_back(MakeEvent(i, i % 3, i * 0.5, 1000 + i));
  }
  BinaryWriter writer;
  writer.PutEvents(events);
  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.GetEvents().value(), events);
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinarySerdeTest, UnderflowIsError) {
  BinaryWriter writer;
  writer.PutU32(1);
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.GetU64().status().IsOutOfRange());
}

TEST(BinarySerdeTest, TruncatedStringIsError) {
  BinaryWriter writer;
  writer.PutU32(100);  // claims 100 bytes follow
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.GetString().status().IsOutOfRange());
}

TEST(BinarySerdeTest, HugeEventCountIsRejectedNotAllocated) {
  BinaryWriter writer;
  writer.PutU64(1ull << 60);  // absurd count with no bytes behind it
  BinaryReader reader(writer.buffer());
  EXPECT_TRUE(reader.GetEvents().status().IsOutOfRange());
}

// Lowercase hex of a byte string, for readable byte-level comparisons.
std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

EventVec MakeBatch(size_t n) {
  EventVec events;
  events.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    events.push_back(MakeEvent(i * 3 + 1, static_cast<StreamId>(i % 5),
                               static_cast<double>(i) * -0.25,
                               1'000'000 + static_cast<EventTime>(i)));
  }
  return events;
}

TEST(BinarySerdeTest, BatchWireBytesAreFixed) {
  // The layout every binary-codec peer relies on: u64 count, then per
  // event u64 id, u32 stream, f64 value, i64 timestamp, little-endian.
  const EventVec events = {
      MakeEvent(1, 2, 1.5, 3),
      MakeEvent(0x0102030405060708ull, 0xA0B0C0D0u, -2.0, -1)};
  BinaryWriter writer;
  writer.PutEvents(events);
  EXPECT_EQ(Hex(writer.buffer()),
            "0200000000000000"
            "0100000000000000" "02000000" "000000000000f83f"
            "0300000000000000"
            "0807060504030201" "d0c0b0a0" "00000000000000c0"
            "ffffffffffffffff");
  // The single-event writer produces the same per-event bytes.
  BinaryWriter single;
  single.PutU64(events.size());
  for (const Event& e : events) single.PutEvent(e);
  EXPECT_EQ(single.buffer(), writer.buffer());
}

TEST(BinarySerdeTest, BatchRoundTripAtSizeBoundaries) {
  for (size_t n : {0, 1, 8191, 8192}) {
    const EventVec events = MakeBatch(n);
    BinaryWriter writer;
    writer.PutU8(0x5a);  // a batch need not start the buffer
    writer.PutEvents(events);
    writer.PutU8(0xa5);  // nor end it
    EXPECT_EQ(writer.size(), 2 + sizeof(uint64_t) + n * kBinaryEventSize);
    BinaryReader reader(writer.buffer());
    EXPECT_EQ(reader.GetU8().value(), 0x5a);
    EXPECT_EQ(reader.GetEvents().value(), events) << "n=" << n;
    EXPECT_EQ(reader.GetU8().value(), 0xa5);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(BinarySerdeTest, EveryStrictPrefixOfABatchIsOutOfRange) {
  BinaryWriter writer;
  writer.PutEvents(MakeBatch(3));
  const std::string& full = writer.buffer();
  for (size_t len = 0; len < full.size(); ++len) {
    // A copy of exactly `len` bytes, so a read past its end is a heap
    // overflow under AddressSanitizer.
    const std::string prefix = full.substr(0, len);
    BinaryReader reader(prefix);
    EXPECT_TRUE(reader.GetEvents().status().IsOutOfRange()) << "len=" << len;
  }
}

TEST(BinarySerdeTest, EventCountBeyondTheBufferIsRejected) {
  const EventVec events = MakeBatch(4);
  BinaryWriter body;
  for (const Event& e : events) body.PutEvent(e);
  body.PutU8(0);  // a spare byte: not enough for a fifth event
  const std::string bytes = body.buffer();
  const uint64_t remaining = bytes.size();
  for (uint64_t count : {remaining / kBinaryEventSize + 1,
                         static_cast<uint64_t>(UINT64_MAX)}) {
    BinaryWriter writer;
    writer.PutU64(count);
    std::string buffer = writer.Release() + bytes;
    BinaryReader reader(buffer);
    EXPECT_TRUE(reader.GetEvents().status().IsOutOfRange())
        << "count=" << count;
  }
  // The largest count the bytes hold still decodes.
  BinaryWriter writer;
  writer.PutU64(remaining / kBinaryEventSize);
  const std::string buffer = writer.Release() + bytes;
  BinaryReader reader(buffer);
  EXPECT_EQ(reader.GetEvents().value(), events);
  EXPECT_EQ(reader.remaining(), 1u);
}

// ----------------------------------------------------------- Text serde

TEST(TextSerdeTest, EventRoundTrip) {
  const Event e = MakeEvent(9, 3, 2.7182818, 555);
  const std::string text = EncodeEventText(e);
  EXPECT_NE(text.find("event;"), std::string::npos);
  const Event decoded = DecodeEventText(text).value();
  EXPECT_EQ(decoded.id, e.id);
  EXPECT_EQ(decoded.stream_id, e.stream_id);
  EXPECT_EQ(decoded.timestamp, e.timestamp);
  EXPECT_DOUBLE_EQ(decoded.value, e.value);
}

TEST(TextSerdeTest, BatchRoundTripPreservesOrder) {
  EventVec events;
  for (int i = 0; i < 20; ++i) {
    events.push_back(MakeEvent(i, 1, i * 1.25, 10 * i));
  }
  const EventVec decoded = DecodeEventsText(EncodeEventsText(events)).value();
  ASSERT_EQ(decoded.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(decoded[i].id, events[i].id);
    EXPECT_EQ(decoded[i].timestamp, events[i].timestamp);
  }
}

TEST(TextSerdeTest, TextIsLargerThanBinary) {
  // The premise of the Disco network experiments: string wire formats cost
  // more bytes than the compact binary one.
  EventVec events;
  for (int i = 0; i < 50; ++i) {
    events.push_back(MakeEvent(i, 2, 1.0 / 3.0, 1'000'000'000 + i));
  }
  BinaryWriter writer;
  writer.PutEvents(events);
  EXPECT_GT(EncodeEventsText(events).size(), writer.size());
}

TEST(TextSerdeTest, MalformedInputsAreErrors) {
  EXPECT_FALSE(DecodeEventText("garbage").ok());
  EXPECT_FALSE(DecodeEventText("event;id=1").ok());
  EXPECT_FALSE(DecodeEventText("event;id=1;stream=2;value=3").ok());
  EXPECT_FALSE(
      DecodeEventText("event;bogus=1;stream=2;value=3;timestamp=4").ok());
}

TEST(TextSerdeTest, EmptyLinesAreSkipped) {
  const EventVec decoded = DecodeEventsText("\n\n").value();
  EXPECT_TRUE(decoded.empty());
}

}  // namespace
}  // namespace deco
