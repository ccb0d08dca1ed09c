// RFC 4180 CSV quoting for the obs exporters: plain fields pass through,
// fields containing separators or quotes are quoted with embedded quotes
// doubled, and the metrics CSV export applies this to metric names. Also
// the JSON export's MPI top-pairs order.
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

namespace bgckpt::obs {
namespace {

TEST(CsvField, PlainFieldsPassThrough) {
  EXPECT_EQ(csvField(""), "");
  EXPECT_EQ(csvField("io.write.bytes"), "io.write.bytes");
  EXPECT_EQ(csvField("has space"), "has space");
}

TEST(CsvField, SeparatorsAndQuotesAreQuoted) {
  EXPECT_EQ(csvField("a,b"), "\"a,b\"");
  EXPECT_EQ(csvField("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csvField("cr\rhere"), "\"cr\rhere\"");
  EXPECT_EQ(csvField("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csvField("\""), "\"\"\"\"");
}

TEST(CsvField, MetricsCsvQuotesNames) {
  MetricsRegistry reg;
  reg.counter("plain.name").add(1);
  reg.counter("odd,name").add(2);
  const std::string csv = reg.toCsv();
  EXPECT_NE(csv.find("counter,plain.name,1"), std::string::npos);
  EXPECT_NE(csv.find("counter,\"odd,name\",2"), std::string::npos);
}

TEST(MetricsRegistry, TopPairsOrderIndependentOfInsertionOrder) {
  // More equal-byte pairs than the export keeps (64), so both the order and
  // the choice of kept pairs would follow hash order without a tie-break.
  constexpr int kPairs = 200;
  MetricsRegistry forward;
  MetricsRegistry backward;
  for (int i = 0; i < kPairs; ++i) forward.recordPair(i % 7, i, 4096, 1e-6);
  for (int i = kPairs - 1; i >= 0; --i)
    backward.recordPair(i % 7, i, 4096, 1e-6);
  forward.recordPair(3, 999, 8192, 1e-6);  // one heavier pair leads
  backward.recordPair(3, 999, 8192, 1e-6);
  const std::string json = forward.toJson();
  EXPECT_EQ(json, backward.toJson());
  const auto first = json.find("{\"src\": 3, \"dst\": 999");
  const auto second = json.find("{\"src\": 0, \"dst\": 0,");
  const auto third = json.find("{\"src\": 0, \"dst\": 7,");
  ASSERT_NE(first, std::string::npos) << json;
  ASSERT_NE(second, std::string::npos) << json;
  ASSERT_NE(third, std::string::npos) << json;
  EXPECT_LT(first, second);
  EXPECT_LT(second, third);
}

}  // namespace
}  // namespace bgckpt::obs
