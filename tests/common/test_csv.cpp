#include "corun/common/csv.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string_view>

namespace corun {
namespace {

TEST(CsvWriter, PlainCells) {
  std::ostringstream oss;
  CsvWriter w(oss);
  w.write_row({"a", "b", "c"});
  EXPECT_EQ(oss.str(), "a,b,c\n");
}

TEST(CsvWriter, QuotesWhenNeeded) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(ParseCsv, SimpleRows) {
  const auto rows = parse_csv("a,b\nc,d\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows.value()[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseCsv, MissingTrailingNewline) {
  const auto rows = parse_csv("x,y");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0], (std::vector<std::string>{"x", "y"}));
}

TEST(ParseCsv, QuotedCellsWithCommasAndNewlines) {
  const auto rows = parse_csv("\"a,b\",\"c\nd\",\"e\"\"f\"\n");
  ASSERT_TRUE(rows.has_value());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][0], "a,b");
  EXPECT_EQ(rows.value()[0][1], "c\nd");
  EXPECT_EQ(rows.value()[0][2], "e\"f");
}

TEST(ParseCsv, ToleratesCrlf) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_TRUE(rows.has_value());
  EXPECT_EQ(rows.value()[1][1], "d");
}

TEST(ParseCsv, UnterminatedQuoteIsError) {
  const auto rows = parse_csv("\"open");
  EXPECT_FALSE(rows.has_value());
}

TEST(ParseCsv, RoundTripThroughWriter) {
  std::ostringstream oss;
  CsvWriter w(oss);
  w.write_row({"plain", "with,comma", "with\"quote"});
  const auto rows = parse_csv(oss.str());
  ASSERT_TRUE(rows.has_value());
  EXPECT_EQ(rows.value()[0],
            (std::vector<std::string>{"plain", "with,comma", "with\"quote"}));
}

TEST(ParseCsv, EmptyInputYieldsNoRows) {
  const auto rows = parse_csv("");
  ASSERT_TRUE(rows.has_value());
  EXPECT_TRUE(rows.value().empty());
}

TEST(ParseNumber, ReadsWhatTheWritersWriteToTheSameBits) {
  for (const double v : {0.0, -0.0, 1.0 / 3.0, 1.1 * 3.0, 1e-300, 5e-324,
                         1.7976931348623157e308, -12.5, 123456789.125}) {
    const auto read = parse_number<double>(csv_double(v));
    ASSERT_TRUE(read.has_value()) << csv_double(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(read.value()),
              std::bit_cast<std::uint64_t>(v));
  }
  EXPECT_EQ(parse_number<double>(std::to_string(0.9)).value(), 0.9);
  EXPECT_EQ(parse_number<double>("1e+20").value(), 1e20);
  EXPECT_EQ(parse_number<int>("-7").value(), -7);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615").value(),
            UINT64_MAX);
}

TEST(ParseNumber, RejectsAnythingButOneWholeNumber) {
  const auto rejects_double = [](std::string_view text) {
    const auto read = parse_number<double>(text);
    ASSERT_FALSE(read.has_value()) << text;
    EXPECT_EQ(read.error().category, ErrorCategory::kParse) << text;
  };
  for (const std::string_view text :
       {"", "nan", "NaN", "inf", "-inf", "infinity", "5x", "12abc", " 1", "1 ",
        "+1", "0x10", "1e400", "1,5", "-"}) {
    rejects_double(text);
  }
  EXPECT_FALSE(parse_number<int>("5x").has_value());
  EXPECT_FALSE(parse_number<int>("1e9").has_value());
  EXPECT_FALSE(parse_number<int>("2.5").has_value());
  EXPECT_FALSE(parse_number<int>("2147483648").has_value());
  EXPECT_FALSE(parse_number<int>("+3").has_value());
  // An unsigned field takes no sign, and past its range is an error, not
  // a wrap.
  EXPECT_FALSE(parse_number<std::uint64_t>("-5").has_value());
  EXPECT_FALSE(parse_number<std::uint64_t>("+5").has_value());
  EXPECT_FALSE(
      parse_number<std::uint64_t>("18446744073709551616").has_value());
  EXPECT_NE(parse_number<std::uint64_t>("18446744073709551616")
                .error()
                .message.find("in range"),
            std::string::npos);
}

constexpr std::string_view kColumns[] = {"time", "count", "name"};

TEST(ReadCsvTable, ReadsRowsUnderTheWritersHeader) {
  std::ostringstream oss;
  CsvWriter writer(oss);
  writer.write_row(kColumns);
  writer.write_row({"0.5", "3", "a,b"});
  writer.write_row({"-", "-", "c"});
  auto rows = read_csv_table(oss.str(), kColumns, "test CSV");
  ASSERT_TRUE(rows.has_value()) << rows.error().message;
  std::vector<Record> table = std::move(rows).value();
  ASSERT_EQ(table.size(), 2u);
  double time = 9.0;
  std::uint64_t count = 9;
  table[0].read("time", time);
  table[0].read("count", count);
  EXPECT_FALSE(table[0].error());
  EXPECT_EQ(time, 0.5);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(table[0]["name"], "a,b");
  EXPECT_EQ(table[1].where(), "test CSV row 3");
  table[1].read_or_keep("time", time);  // "-" keeps the value
  EXPECT_EQ(time, 0.5);
  EXPECT_FALSE(table[1].error());
  table[1].read("count", count);  // a plain read takes "-" as text
  ASSERT_TRUE(table[1].error().has_value());
  EXPECT_EQ(table[1].error()->category, ErrorCategory::kParse);
  EXPECT_EQ(table[1].error()->message,
            "test CSV row 3: count: '-' is not an unsigned integer in range");
  EXPECT_EQ(count, 3u) << "a failed read leaves its target alone";
  EXPECT_THROW((void)table[1]["missing"], ContractViolation);
}

TEST(ReadCsvTable, KeepsOnlyTheFirstFailure) {
  auto rows = read_csv_table("time,count,name\nnan,x,\n", kColumns, "t");
  ASSERT_TRUE(rows.has_value());
  std::vector<Record> table = std::move(rows).value();
  double time = 1.0;
  int count = 1;
  table[0].read("time", time);
  table[0].read("count", count);
  table[0].fail_field("name", "empty");
  ASSERT_TRUE(table[0].error().has_value());
  EXPECT_EQ(table[0].error()->message,
            "t row 2: time: 'nan' is not a finite number");
  EXPECT_EQ(count, 1);
}

TEST(ReadCsvTable, RejectsAWrongHeaderOrArity) {
  for (const char* text : {
           "",                               // no header
           "time,count\n1,2\n",              // short header
           "time,count,name,x\n",            // long header
           "time,name,count\n",              // reordered header
           "time,count,name\n1,2\n",         // short row
           "time,count,name\n1,2,a,b\n",     // long row
           "time,count,name\n1,2,a\n\n",     // blank line
           "\"time,count,name\n",            // unterminated quote
       }) {
    const auto rows = read_csv_table(text, kColumns, "t");
    ASSERT_FALSE(rows.has_value()) << text;
    EXPECT_EQ(rows.error().category, ErrorCategory::kParse) << text;
  }
  const auto header_only = read_csv_table("time,count,name\n", kColumns, "t");
  ASSERT_TRUE(header_only.has_value());
  EXPECT_TRUE(header_only.value().empty());
}

constexpr std::string_view kKeys[] = {"count", "rate", "absent", "names"};

TEST(ReadSpec, ReadsKeysAndRejectsUnknownOrMalformedItems) {
  auto parsed = read_spec("random:count=3,,rate=0.25,count=4,names=a+b",
                          "random:", kKeys, "test spec");
  ASSERT_TRUE(parsed.has_value()) << parsed.error().message;
  Record spec = std::move(parsed).value();
  int count = 0;
  double rate = 1.0;
  double absent = 7.0;
  spec.read_or_keep("count", count);
  spec.read_or_keep("rate", rate);
  spec.read_or_keep("absent", absent);
  EXPECT_FALSE(spec.error().has_value());
  EXPECT_EQ(count, 4) << "the last item of a key wins";
  EXPECT_EQ(rate, 0.25);
  EXPECT_EQ(absent, 7.0) << "a key not given reads as \"-\"";
  EXPECT_EQ(spec["names"], "a+b");

  auto bad = read_spec("random:count=1x", "random:", kKeys, "s");
  ASSERT_TRUE(bad.has_value());
  Record b = std::move(bad).value();
  b.read_or_keep("count", count);
  ASSERT_TRUE(b.error().has_value());
  EXPECT_EQ(b.error()->message, "s: count: '1x' is not an integer in range");

  for (const char* text : {"count=1", "random:count", "random:count=1,x",
                           "random:count=1,bogus=2"}) {
    const auto rejected = read_spec(text, "random:", kKeys, "s");
    ASSERT_FALSE(rejected.has_value()) << text;
    EXPECT_EQ(rejected.error().category, ErrorCategory::kParse);
  }
  EXPECT_EQ(read_spec("random:count=1,bogus=2", "random:", kKeys, "s")
                .error()
                .message,
            "s: unknown key 'bogus'");
  EXPECT_TRUE(read_spec("random:", "random:", kKeys, "s").has_value());
}

}  // namespace
}  // namespace corun
