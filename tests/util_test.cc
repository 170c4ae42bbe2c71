#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dist/socket_transport.h"
#include "dist/wire.h"
#include "graph/graph.h"
#include "util/min_heap.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/table.h"

namespace stl {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    uint64_t v = rng.NextInRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ForkedStreamsAreIndependent) {
  Rng base(42);
  Rng a = base.Fork(1);
  Rng b = base.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
  // Forking with the same id from the same state is reproducible.
  Rng base2(42);
  Rng a2 = base2.Fork(1);
  Rng base3(42);
  Rng a3 = base3.Fork(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a2.Next(), a3.Next());
}

TEST(MinHeapTest, PopsInKeyOrder) {
  MinHeap<uint32_t, uint32_t> h;
  const uint32_t keys[] = {5, 1, 9, 1, 7, 0, 3};
  for (uint32_t k : keys) h.Push(k, 100 + k);
  uint32_t prev = 0;
  size_t count = 0;
  while (!h.empty()) {
    auto [k, v] = h.Pop();
    EXPECT_GE(k, prev);
    EXPECT_EQ(v, 100 + k);
    prev = k;
    ++count;
  }
  EXPECT_EQ(count, 7u);
}

TEST(MinHeapTest, TieBreaksByPayload) {
  MinHeap<uint32_t, uint32_t> h;
  h.Push(4, 30);
  h.Push(4, 10);
  h.Push(4, 20);
  EXPECT_EQ(h.Pop().payload, 10u);
  EXPECT_EQ(h.Pop().payload, 20u);
  EXPECT_EQ(h.Pop().payload, 30u);
}

/// Pops `heap` empty against a sorted reference of the same entries:
/// every pop has the reference's smallest key, and pops one of the
/// reference's entries (equal keys may pop in any order).
void DrainAgainstReference(RadixHeap<uint32_t>* heap,
                           std::multiset<std::pair<uint32_t, uint32_t>>* ref) {
  while (!ref->empty()) {
    ASSERT_FALSE(heap->empty());
    ASSERT_EQ(heap->size(), ref->size());
    auto [key, payload] = heap->Pop();
    ASSERT_EQ(key, ref->begin()->first);
    auto it = ref->find({key, payload});
    ASSERT_NE(it, ref->end()) << "popped an entry never pushed";
    ref->erase(it);
  }
  EXPECT_TRUE(heap->empty());
}

TEST(RadixHeapTest, RandomMonotonePushesMatchSortedReference) {
  Rng rng(3);
  RadixHeap<uint32_t> heap;
  std::multiset<std::pair<uint32_t, uint32_t>> ref;
  uint32_t last = 0;
  for (uint32_t i = 0; i < 20000; ++i) {
    if (ref.empty() || rng.NextBounded(3) != 0) {
      // Dijkstra-like increments, occasionally a far jump.
      const uint32_t step = rng.NextBounded(10) == 0
                                ? static_cast<uint32_t>(rng.NextBounded(1u << 28))
                                : static_cast<uint32_t>(rng.NextBounded(300));
      const uint32_t key = std::min(last + step, kInfDistance);
      heap.Push(key, i);
      ref.insert({key, i});
    } else {
      auto [key, payload] = heap.Pop();
      ASSERT_EQ(key, ref.begin()->first);
      auto it = ref.find({key, payload});
      ASSERT_NE(it, ref.end());
      ref.erase(it);
      last = key;
    }
  }
  DrainAgainstReference(&heap, &ref);
}

TEST(RadixHeapTest, EqualKeysPopEveryPayloadOnce) {
  RadixHeap<uint32_t> heap;
  std::multiset<std::pair<uint32_t, uint32_t>> ref;
  for (uint32_t p = 0; p < 500; ++p) {
    heap.Push(77, p);
    ref.insert({77, p});
  }
  heap.Push(78, 1000);
  ref.insert({78, 1000});
  DrainAgainstReference(&heap, &ref);
}

TEST(RadixHeapTest, InfiniteKeysPopLast) {
  RadixHeap<uint32_t> heap;
  std::multiset<std::pair<uint32_t, uint32_t>> ref;
  const uint32_t keys[] = {kInfDistance, 5, kInfDistance, 0, kInfDistance - 1,
                           kInfDistance, 1u << 20};
  for (uint32_t i = 0; i < std::size(keys); ++i) {
    heap.Push(keys[i], i);
    ref.insert({keys[i], i});
  }
  DrainAgainstReference(&heap, &ref);
}

TEST(RadixHeapTest, ZeroWeightPushesPopBeforeLargerKeys) {
  // A zero-weight arc pushes the key just popped: it must come out next,
  // ahead of every larger key already queued.
  RadixHeap<uint32_t> heap;
  heap.Push(10, 0);
  heap.Push(12, 1);
  heap.Push(1000, 2);
  EXPECT_EQ(heap.Pop().key, 10u);
  heap.Push(10, 3);
  heap.Push(10, 4);
  auto a = heap.Pop();
  auto b = heap.Pop();
  EXPECT_EQ(a.key, 10u);
  EXPECT_EQ(b.key, 10u);
  EXPECT_EQ(std::min(a.payload, b.payload), 3u);
  EXPECT_EQ(std::max(a.payload, b.payload), 4u);
  EXPECT_EQ(heap.Pop().key, 12u);
  heap.Push(12, 5);
  EXPECT_EQ(heap.Pop().payload, 5u);
  EXPECT_EQ(heap.Pop().key, 1000u);
  EXPECT_TRUE(heap.empty());
}

TEST(RadixHeapTest, ReuseAfterClearAcceptsSmallerKeys) {
  RadixHeap<uint32_t> heap(4);
  for (uint32_t i = 0; i < 100; ++i) heap.Push(1000000 + i * 7, i);
  for (int i = 0; i < 40; ++i) heap.Pop();  // the bound is now large
  heap.clear();
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.size(), 0u);
  // clear() resets the monotone bound: keys below the old one are valid,
  // and must still pop before keys just above it.
  std::multiset<std::pair<uint32_t, uint32_t>> ref;
  Rng rng(8);
  for (uint32_t i = 0; i < 300; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(2000000));
    heap.Push(key, i);
    ref.insert({key, i});
  }
  DrainAgainstReference(&heap, &ref);
}

TEST(ParetoHeapTest, DistanceAscThenLevelDesc) {
  // Equal distance: the entry with LARGER max_level pops first
  // (Section 5.2: Pareto-optimal tuples met before dominated ones).
  ParetoHeap h;
  h.Push(ParetoEntry{10, 0, 2, 1});
  h.Push(ParetoEntry{10, 0, 7, 2});
  h.Push(ParetoEntry{5, 0, 1, 3});
  h.Push(ParetoEntry{10, 0, 4, 4});
  EXPECT_EQ(h.Pop().vertex, 3u);  // smallest distance first
  EXPECT_EQ(h.Pop().vertex, 2u);  // then max_level 7
  EXPECT_EQ(h.Pop().vertex, 4u);  // then 4
  EXPECT_EQ(h.Pop().vertex, 1u);  // then 2
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Name", "Value"});
  t.AddRow({"x", "1"});
  t.AddRow({"longer-name", "234"});
  std::string out = t.ToString();
  EXPECT_NE(out.find("Name"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  // Header line and rule line present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TablePrinterDeathTest, RowWidthMismatchDies) {
  TablePrinter t({"a", "b"});
  EXPECT_DEATH(t.AddRow({"only-one"}), "row width mismatch");
}

TEST(TablePrinterTest, Formatters) {
  EXPECT_EQ(TablePrinter::Fixed(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Bytes(512), "512.00 B");
  EXPECT_EQ(TablePrinter::Bytes(2048), "2.00 KB");
  EXPECT_EQ(TablePrinter::Bytes(3ull << 30), "3.00 GB");
  EXPECT_EQ(TablePrinter::Count(42), "42");
  EXPECT_EQ(TablePrinter::Count(1500), "1.50 K");
  EXPECT_EQ(TablePrinter::Count(2500000), "2.50 M");
  EXPECT_EQ(TablePrinter::Count(9200000000ull), "9.20 B");
}

TEST(SerializeTest, PodAndVectorRoundTrip) {
  const std::string path = TempPath("ser_roundtrip.bin");
  std::vector<uint32_t> vec = {1, 2, 3, 0xffffffffu};
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path, 0xabcd1234, 3).ok());
    ASSERT_TRUE(w.WritePod<uint64_t>(77).ok());
    ASSERT_TRUE(w.WriteVector(vec).ok());
    ASSERT_TRUE(w.WriteString("hello").ok());
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r;
  ASSERT_TRUE(r.Open(path, 0xabcd1234, 3).ok());
  EXPECT_EQ(r.version(), 3u);
  uint64_t x = 0;
  ASSERT_TRUE(r.ReadPod(&x).ok());
  EXPECT_EQ(x, 77u);
  std::vector<uint32_t> got;
  ASSERT_TRUE(r.ReadVector(&got).ok());
  EXPECT_EQ(got, vec);
  std::string s;
  ASSERT_TRUE(r.ReadString(&s).ok());
  EXPECT_EQ(s, "hello");
}

TEST(SerializeTest, BadMagicRejected) {
  const std::string path = TempPath("ser_magic.bin");
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path, 0x11111111, 1).ok());
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r;
  Status s = r.Open(path, 0x22222222, 1);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(SerializeTest, NewerVersionRejected) {
  const std::string path = TempPath("ser_version.bin");
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path, 0x33333333, 9).ok());
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r;
  Status s = r.Open(path, 0x33333333, 8);
  EXPECT_EQ(s.code(), StatusCode::kNotSupported);
}

TEST(SerializeTest, TruncatedFileIsCorruption) {
  const std::string path = TempPath("ser_trunc.bin");
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path, 0x44444444, 1).ok());
    ASSERT_TRUE(w.WritePod<uint32_t>(5).ok());
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r;
  ASSERT_TRUE(r.Open(path, 0x44444444, 1).ok());
  uint64_t too_big = 0;
  EXPECT_TRUE(r.ReadPod(&too_big).ok() == false);
}

TEST(SerializeTest, ImplausibleVectorLengthIsCorruption) {
  const std::string path = TempPath("ser_len.bin");
  {
    BinaryWriter w;
    ASSERT_TRUE(w.Open(path, 0x55555555, 1).ok());
    ASSERT_TRUE(w.WritePod<uint64_t>(UINT64_MAX).ok());  // fake huge length
    ASSERT_TRUE(w.Close().ok());
  }
  BinaryReader r;
  ASSERT_TRUE(r.Open(path, 0x55555555, 1).ok());
  std::vector<uint64_t> v;
  Status s = r.ReadVector(&v);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(SerializeTest, MissingFileIsIOError) {
  BinaryReader r;
  Status s = r.Open(TempPath("does_not_exist.bin"), 1, 1);
  EXPECT_EQ(s.code(), StatusCode::kIOError);
}

// ------------------------------------------------ shard wire messages

// Requests spanning the value range: both kinds, zero and all-ones
// vertices, and a shard_epoch with every byte distinct (catches
// field-order and endianness slips bitwise).
std::vector<ShardRequest> SampleRequests() {
  ShardRequest row;
  row.kind = WireKind::kBoundaryRow;
  row.shard = 0;
  row.shard_epoch = 0;
  row.u = 0;
  row.v = 0;
  ShardRequest point;
  point.kind = WireKind::kPointQuery;
  point.shard = 0xfffffffeu;
  point.shard_epoch = 0x0123456789abcdefull;
  point.u = 0xffffffffu;
  point.v = 0x80000001u;
  return {row, point};
}

// Responses spanning the value range: served rows (empty, singleton,
// max-plausible with kInfDistance sentinels mixed in) and the
// kUnavailable failure shape.
std::vector<ShardResponse> SampleResponses() {
  std::vector<ShardResponse> out;
  ShardResponse ok;
  ok.code = StatusCode::kOk;
  ok.shard = 3;
  ok.shard_epoch = 7;
  ok.distance = 12345;
  ok.row = {0, 1, kInfDistance, 0x3ffffffeu, 42};
  out.push_back(ok);
  ShardResponse empty_row = ok;
  empty_row.row.clear();
  empty_row.distance = kInfDistance;
  out.push_back(empty_row);
  ShardResponse big = ok;
  big.row.assign(4096, kInfDistance);
  for (size_t i = 0; i < big.row.size(); i += 3) {
    big.row[i] = static_cast<Weight>(i);
  }
  out.push_back(big);
  ShardResponse unavailable;
  unavailable.code = StatusCode::kUnavailable;
  unavailable.shard = 0xffffffffu;
  unavailable.shard_epoch = UINT64_MAX;
  unavailable.distance = kInfDistance;
  out.push_back(unavailable);
  return out;
}

TEST(WireTest, ShardRequestRoundTripIsBitwise) {
  for (const ShardRequest& req : SampleRequests()) {
    const std::vector<uint8_t> bytes = req.Encode();
    ShardRequest got;
    ASSERT_TRUE(ShardRequest::Decode(bytes.data(), bytes.size(), &got).ok());
    EXPECT_EQ(got.kind, req.kind);
    EXPECT_EQ(got.shard, req.shard);
    EXPECT_EQ(got.shard_epoch, req.shard_epoch);
    EXPECT_EQ(got.u, req.u);
    EXPECT_EQ(got.v, req.v);
    // Re-encoding the decoded message reproduces the original bytes:
    // the codec is bijective on its message set.
    EXPECT_EQ(got.Encode(), bytes);
  }
}

TEST(WireTest, ShardResponseRoundTripIsBitwise) {
  for (const ShardResponse& resp : SampleResponses()) {
    const std::vector<uint8_t> bytes = resp.Encode();
    ShardResponse got;
    ASSERT_TRUE(
        ShardResponse::Decode(bytes.data(), bytes.size(), &got).ok());
    EXPECT_EQ(got.code, resp.code);
    EXPECT_EQ(got.shard, resp.shard);
    EXPECT_EQ(got.shard_epoch, resp.shard_epoch);
    EXPECT_EQ(got.distance, resp.distance);
    EXPECT_EQ(got.row, resp.row);
    EXPECT_EQ(got.Encode(), bytes);
  }
}

TEST(WireTest, EveryTruncatedPrefixIsRejected) {
  for (const ShardRequest& req : SampleRequests()) {
    const std::vector<uint8_t> bytes = req.Encode();
    for (size_t len = 0; len < bytes.size(); ++len) {
      ShardRequest got;
      EXPECT_FALSE(ShardRequest::Decode(bytes.data(), len, &got).ok())
          << "request prefix of " << len << " bytes decoded";
    }
  }
  for (const ShardResponse& resp : SampleResponses()) {
    const std::vector<uint8_t> bytes = resp.Encode();
    for (size_t len = 0; len < bytes.size(); ++len) {
      ShardResponse got;
      EXPECT_FALSE(ShardResponse::Decode(bytes.data(), len, &got).ok())
          << "response prefix of " << len << " bytes decoded";
    }
  }
}

TEST(WireTest, TrailingBytesAreCorruption) {
  std::vector<uint8_t> bytes = SampleRequests()[0].Encode();
  bytes.push_back(0);
  ShardRequest req;
  EXPECT_EQ(ShardRequest::Decode(bytes.data(), bytes.size(), &req).code(),
            StatusCode::kCorruption);
  bytes = SampleResponses()[0].Encode();
  bytes.push_back(0);
  ShardResponse resp;
  EXPECT_EQ(
      ShardResponse::Decode(bytes.data(), bytes.size(), &resp).code(),
      StatusCode::kCorruption);
}

TEST(WireTest, CorruptedHeaderAndFieldsRejected) {
  // Flipped magic: corruption.
  std::vector<uint8_t> bytes = SampleRequests()[0].Encode();
  bytes[0] ^= 0xff;
  ShardRequest req;
  EXPECT_EQ(ShardRequest::Decode(bytes.data(), bytes.size(), &req).code(),
            StatusCode::kCorruption);

  // Version newer than the library: typed version skew, not corruption.
  bytes = SampleRequests()[0].Encode();
  const uint32_t future = kWireVersion + 1;
  std::memcpy(bytes.data() + sizeof(uint32_t), &future, sizeof(uint32_t));
  EXPECT_EQ(ShardRequest::Decode(bytes.data(), bytes.size(), &req).code(),
            StatusCode::kNotSupported);

  // Unknown request kind: corruption.
  bytes = SampleRequests()[0].Encode();
  const uint32_t bad_kind = 99;
  std::memcpy(bytes.data() + 2 * sizeof(uint32_t), &bad_kind,
              sizeof(uint32_t));
  EXPECT_EQ(ShardRequest::Decode(bytes.data(), bytes.size(), &req).code(),
            StatusCode::kCorruption);

  // A response code outside {kOk, kUnavailable}: corruption.
  bytes = SampleResponses()[0].Encode();
  const uint32_t bad_code = 99;
  std::memcpy(bytes.data() + 2 * sizeof(uint32_t), &bad_code,
              sizeof(uint32_t));
  ShardResponse resp;
  EXPECT_EQ(
      ShardResponse::Decode(bytes.data(), bytes.size(), &resp).code(),
      StatusCode::kCorruption);

  // A row length prefix far beyond the buffer: corruption, caught
  // before any allocation.
  bytes = SampleResponses()[0].Encode();
  const uint64_t huge = UINT64_MAX;
  std::memcpy(bytes.data() + bytes.size() - sizeof(uint64_t) -
                  SampleResponses()[0].row.size() * sizeof(Weight),
              &huge, sizeof(uint64_t));
  EXPECT_EQ(
      ShardResponse::Decode(bytes.data(), bytes.size(), &resp).code(),
      StatusCode::kCorruption);
}

// ------------------------------------------------- stream framing

TEST(FrameTest, RoundTripAndConcatenation) {
  const std::vector<uint8_t> p1 = SampleRequests()[1].Encode();
  const std::vector<uint8_t> p2 = SampleResponses()[2].Encode();
  std::vector<uint8_t> stream;
  EncodeFrame(0xdeadbeefcafef00dull, p1, &stream);
  EncodeFrame(42, p2, &stream);
  EncodeFrame(7, {}, &stream);  // empty payload frames are legal

  WireFrame frame;
  size_t consumed = 0;
  ASSERT_TRUE(
      DecodeFrame(stream.data(), stream.size(), &frame, &consumed).ok());
  EXPECT_EQ(frame.tag, 0xdeadbeefcafef00dull);
  EXPECT_EQ(frame.payload, p1);
  size_t off = consumed;
  ASSERT_TRUE(DecodeFrame(stream.data() + off, stream.size() - off, &frame,
                          &consumed)
                  .ok());
  EXPECT_EQ(frame.tag, 42u);
  EXPECT_EQ(frame.payload, p2);
  off += consumed;
  ASSERT_TRUE(DecodeFrame(stream.data() + off, stream.size() - off, &frame,
                          &consumed)
                  .ok());
  EXPECT_EQ(frame.tag, 7u);
  EXPECT_TRUE(frame.payload.empty());
  EXPECT_EQ(off + consumed, stream.size());
}

TEST(FrameTest, IncompletePrefixIsRetryableNotCorrupt) {
  std::vector<uint8_t> stream;
  EncodeFrame(9, SampleRequests()[0].Encode(), &stream);
  for (size_t len = 0; len < stream.size(); ++len) {
    WireFrame frame;
    size_t consumed = 0xff;
    Status s = DecodeFrame(stream.data(), len, &frame, &consumed);
    EXPECT_EQ(s.code(), StatusCode::kUnavailable)
        << "prefix of " << len << " bytes";
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(FrameTest, ImplausibleLengthIsCorruption) {
  // Body length below the tag size or above the sanity bound: a
  // corrupted stream, not a short read.
  for (uint32_t body : {uint32_t{0}, uint32_t{7}, (1u << 28) + 1}) {
    std::vector<uint8_t> stream(sizeof(uint32_t) + 16, 0);
    std::memcpy(stream.data(), &body, sizeof(uint32_t));
    WireFrame frame;
    size_t consumed = 0xff;
    Status s =
        DecodeFrame(stream.data(), stream.size(), &frame, &consumed);
    EXPECT_EQ(s.code(), StatusCode::kCorruption) << "body=" << body;
    EXPECT_EQ(consumed, 0u);
  }
}

}  // namespace
}  // namespace stl
