// Unit tests for src/base: rng, stats, strings, bytes, the latency histogram,
// the artifact layout.
#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "src/base/artifact.h"
#include "src/base/bytes.h"
#include "src/base/histogram.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/strings.h"

namespace kite {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All values hit.
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.03);
}

TEST(RngTest, ForkIndependent) {
  Rng parent(5);
  Rng child = parent.Fork();
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

TEST(StatsTest, BasicMoments) {
  Stats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(v);
  }
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  EXPECT_NEAR(s.StdDev(), 2.138, 0.001);
  EXPECT_NEAR(s.RelStdDevPercent(), 42.76, 0.01);
}

TEST(StatsTest, PercentileNearestRank) {
  Stats s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
}

TEST(StatsTest, MergeCombines) {
  Stats a;
  Stats b;
  a.Add(1.0);
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(StatsTest, EmptyIsSafe) {
  Stats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.StdDev(), 0.0);
  EXPECT_DOUBLE_EQ(s.RelStdDevPercent(), 0.0);
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, SplitPathDropsEmpty) {
  auto parts = SplitPath("/a//b/c/");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(SplitPath("").empty());
  EXPECT_TRUE(SplitPath("/").empty());
}

TEST(StringsTest, PathIsUnder) {
  EXPECT_TRUE(PathIsUnder("/a/b", "/a"));
  EXPECT_TRUE(PathIsUnder("/a", "/a"));
  EXPECT_FALSE(PathIsUnder("/ab", "/a"));
  EXPECT_TRUE(PathIsUnder("/anything", "/"));
  EXPECT_FALSE(PathIsUnder("/a", "/a/b"));
}

TEST(StringsTest, ParseDecimal) {
  EXPECT_EQ(ParseDecimal("0"), 0);
  EXPECT_EQ(ParseDecimal("12345"), 12345);
  EXPECT_EQ(ParseDecimal(""), -1);
  EXPECT_EQ(ParseDecimal("12a"), -1);
  EXPECT_EQ(ParseDecimal("-5"), -1);
  EXPECT_EQ(ParseDecimal("9223372036854775807"), INT64_MAX);
  EXPECT_EQ(ParseDecimal("9223372036854775808"), -1);
  EXPECT_EQ(ParseDecimal("18446744073709551626"), -1);
  EXPECT_EQ(ParseDecimal("99999999999999999999"), -1);
}

// --- LatencyHistogram. ---

void ExpectSameHistogram(const LatencyHistogram& got, const LatencyHistogram& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.sum(), want.sum());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
  EXPECT_EQ(got.p50(), want.p50());
  EXPECT_EQ(got.p90(), want.p90());
  EXPECT_EQ(got.p99(), want.p99());
  EXPECT_EQ(got.p999(), want.p999());
  for (double p : {0.0, 1.0, 25.0, 75.0, 100.0}) {
    EXPECT_EQ(got.Percentile(p), want.Percentile(p)) << "p" << p;
  }
}

TEST(LatencyHistogramTest, MergeEqualsOneHistogramFedBothSampleSets) {
  Rng rng(7);
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram both;
  for (int i = 0; i < 5000; ++i) {
    // From the exact low buckets up to ~16 ms, across many octaves.
    const uint64_t v = rng.NextBelow(uint64_t{1} << (1 + rng.NextBelow(24)));
    (i % 3 == 0 ? a : b).Record(v);
    both.Record(v);
  }
  ASSERT_GT(a.count(), 0u);
  ASSERT_GT(b.count(), 0u);
  a.Merge(b);
  ExpectSameHistogram(a, both);
}

TEST(LatencyHistogramTest, MergingAnEmptyHistogramChangesNothing) {
  LatencyHistogram h;
  for (uint64_t v : {3u, 64u, 1000u, 250000u}) {
    h.Record(v);
  }
  const LatencyHistogram before = h;
  h.Merge(LatencyHistogram());
  ExpectSameHistogram(h, before);

  // Into an empty one, a merge is a copy, and empty into empty stays empty.
  LatencyHistogram copy;
  copy.Merge(before);
  ExpectSameHistogram(copy, before);
  LatencyHistogram empty;
  empty.Merge(LatencyHistogram());
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.min(), 0u);
  EXPECT_EQ(empty.max(), 0u);
  EXPECT_EQ(empty.p50(), 0u);
}

TEST(BytesTest, WriterReaderRoundTrip) {
  Buffer buf;
  ByteWriter w(&buf);
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  ByteReader r(buf);
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(BytesTest, ReaderTruncationSetsNotOk) {
  Buffer buf = {0x01};
  ByteReader r(buf);
  EXPECT_EQ(r.U32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(BytesTest, BigEndianOrder) {
  Buffer buf;
  ByteWriter w(&buf);
  w.U16(0x0102);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[1], 0x02);
}

TEST(BytesTest, InternetChecksumKnownVector) {
  // RFC 1071 example-style check: checksum of data + its checksum is 0.
  Buffer data = {0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06};
  uint16_t csum = InternetChecksum(data);
  Buffer with;
  with.insert(with.end(), data.begin(), data.end());
  with.push_back(static_cast<uint8_t>(csum >> 8));
  with.push_back(static_cast<uint8_t>(csum));
  EXPECT_EQ(InternetChecksum(with), 0);
}

TEST(BytesTest, ChecksumOddLength) {
  Buffer data = {0x01, 0x02, 0x03};
  // Must not crash and must be stable.
  EXPECT_EQ(InternetChecksum(data), InternetChecksum(data));
}

// One's-complement fold of a wide sum, complemented: the checksum's last step.
uint16_t FoldComplement(uint64_t sum) {
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<uint16_t>(~sum);
}

// The byte-pair RFC 1071 sum that the word-wise InternetChecksum replaced;
// kept as the reference it must match bit for bit. Byte i is the high half
// of a big-endian word when i is even.
uint64_t ReferenceByteValue(std::span<const uint8_t> data, size_t i) {
  return i % 2 == 0 ? static_cast<uint64_t>(data[i]) << 8 : data[i];
}

uint16_t ReferenceChecksum(std::span<const uint8_t> data, uint32_t initial) {
  uint64_t sum = initial;
  for (size_t i = 0; i < data.size(); ++i) {
    sum += ReferenceByteValue(data, i);
  }
  return FoldComplement(sum);
}

TEST(BytesTest, InternetChecksumMatchesBytewiseReference) {
  constexpr size_t kMaxLen = 65535;
  constexpr size_t kMaxShift = 7;  // Start offsets 0..7: every alignment.
  Rng rng(1071);
  Buffer random(kMaxLen + kMaxShift);
  for (auto& b : random) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  const Buffer zeros(kMaxLen + kMaxShift, 0x00);
  const Buffer ones(kMaxLen + kMaxShift, 0xff);
  // 0x2a0e5 is a UDP pseudo-header sum: wider than 16 bits, as callers pass.
  const uint32_t initials[] = {0, 1, 0xffff, 0x2a0e5, 0xffffffff};

  EXPECT_EQ(InternetChecksum(Buffer{}), 0xffff);  // No bytes, null data().

  // Every length 0..65,535 from an odd start, against a running reference
  // sum over the growing prefix.
  const auto unaligned = std::span<const uint8_t>(random).subspan(3, kMaxLen);
  uint64_t prefix = 0;
  for (size_t len = 0; len <= kMaxLen; ++len) {
    if (len > 0) {
      prefix += ReferenceByteValue(unaligned, len - 1);
    }
    ASSERT_EQ(InternetChecksum(unaligned.first(len), 0x2a0e5), FoldComplement(prefix + 0x2a0e5))
        << "length " << len;
  }

  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 1500; ++len) {
    lengths.push_back(len);
  }
  for (size_t len = 1501; len < kMaxLen - 2; len += 509) {
    lengths.push_back(len);
  }
  for (size_t len : {kMaxLen - 2, kMaxLen - 1, kMaxLen}) {
    lengths.push_back(len);
  }
  for (size_t len : lengths) {
    const size_t shift = len % (kMaxShift + 1);
    const uint32_t initial = initials[len % std::size(initials)];
    const auto span = std::span<const uint8_t>(random).subspan(shift, len);
    ASSERT_EQ(InternetChecksum(span, initial), ReferenceChecksum(span, initial))
        << "random data, length " << len << ", shift " << shift << ", initial " << initial;
  }
  for (const Buffer* fill : {&zeros, &ones}) {
    for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{8},
                       size_t{1499}, kMaxLen - 1, kMaxLen}) {
      for (size_t shift = 0; shift <= kMaxShift; ++shift) {
        for (uint32_t initial : initials) {
          const auto span = std::span<const uint8_t>(*fill).subspan(shift, len);
          ASSERT_EQ(InternetChecksum(span, initial), ReferenceChecksum(span, initial))
              << "fill " << int{(*fill)[0]} << ", length " << len << ", shift " << shift
              << ", initial " << initial;
        }
      }
    }
  }
}

TEST(BytesTest, Fnv1aDistinguishes) {
  Buffer a = {1, 2, 3};
  Buffer b = {1, 2, 4};
  EXPECT_NE(Fnv1a(a), Fnv1a(b));
}

// --- The artifact layout: one writer, one reader. ---

TEST(ArtifactTest, RoundTripsEveryValueKind) {
  const std::string text = "tab\tquote\" back\\ line\n bell\x07";
  const std::string params = "{\"rate\": 1.5, \"os\": \"Kite\"}";
  ArtifactWriter doc;
  doc.Field("title", "\"" + JsonEscape(text) + "\"");
  doc.Field("params", params);
  doc.Field("ticks", "12345678901");
  doc.Array("rows", {StrFormat("{\"name\":\"%s\",\"value\":%.10g,\"on\":true}",
                               JsonEscape(text).c_str(), 2.0 / 3.0),
                     "{\"key\":\"d/dev/n\",\"points\":[[10,1],[20,-2.5],[30,0]]}"});
  doc.Array("empty", {});
  const std::string json = doc.Render();
  EXPECT_EQ(json.substr(0, 2), "{\n");
  EXPECT_NE(json.find("  \"empty\": []\n}\n"), std::string::npos);

  std::istringstream in(json);
  Artifact back;
  std::string error;
  ASSERT_TRUE(ReadArtifact(in, &back, &error)) << error;
  EXPECT_EQ(back.top.Str("title"), text);
  EXPECT_EQ(back.top.Raw("params"), params);
  const ArtifactRow params_object{std::string(back.top.Raw("params"))};
  EXPECT_EQ(params_object.Num("rate"), 1.5);
  EXPECT_EQ(params_object.Str("os"), "Kite");
  EXPECT_EQ(back.top.Num("ticks"), 12345678901.0);
  ASSERT_EQ(back.sections.size(), 2u);
  const std::vector<ArtifactRow>& rows = back.sections["rows"];
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].Str("name"), text);
  EXPECT_EQ(rows[0].Num("value"), 0.6666666667);  // 2/3 printed with %.10g.
  EXPECT_EQ(rows[0].Raw("on"), "true");
  const std::vector<std::pair<double, double>> points = {{10, 1}, {20, -2.5}, {30, 0}};
  EXPECT_EQ(rows[1].Points("points"), points);
  ASSERT_EQ(back.sections.count("empty"), 1u);
  EXPECT_TRUE(back.sections["empty"].empty());
}

TEST(ArtifactTest, RejectsALineOutsideTheLayoutAndNamesIt) {
  const std::string good = "{\n  \"n\": 1,\n  \"rows\": [\n    {\"a\":1}\n  ]\n}\n";
  Artifact doc;
  std::string error;
  std::istringstream ok(good);
  ASSERT_TRUE(ReadArtifact(ok, &doc, &error)) << error;
  // Text after a row, a stray line, a Chrome trace and a truncated file.
  for (const auto& [text, line] : std::vector<std::pair<std::string, int>>{
           {"{\n  \"n\": 1,\n  \"rows\": [\n    {\"a\": 1} x\n  ]\n}\n", 4},
           {"{\n  \"n\": 1,\nnoise\n}\n", 3},
           {"{\"traceEvents\":[]}\n", 1},
           {"{\n  \"rows\": [\n    {\"a\":1}\n", 4}}) {
    std::istringstream in(text);
    EXPECT_FALSE(ReadArtifact(in, &doc, &error)) << text;
    EXPECT_EQ(error.rfind(StrFormat("line %d: ", line), 0), 0u) << error;
  }
}

}  // namespace
}  // namespace kite
