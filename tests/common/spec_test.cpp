// The shared spec tokenizer: every spec grammar and flag parser leans on
// these lexical rules, so each one is pinned here once.
#include "common/spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace esg::spec {
namespace {

std::string error_of(auto&& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Spec, TrimStripsSpaceTabAndCarriageReturn) {
  EXPECT_EQ(trim(" \t a b \r"), "a b");
  EXPECT_EQ(trim("50\r"), "50");
  EXPECT_EQ(trim("\r\n"), "\n");
  EXPECT_EQ(trim(" \t\r "), "");
}

TEST(Spec, SplitKeepsEmptyPieces) {
  EXPECT_EQ(split("a, b ,,c", ','),
            (std::vector<std::string_view>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string_view>{""}));
}

TEST(Spec, ClausesSkipBlankAndCommentLinesAndCiteLines) {
  const std::vector<Clause> got =
      clauses("# header\r\na;b\r\n\r\n  # indented comment\n;c ;\n");
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].text, "a");
  EXPECT_EQ(got[0].line, 2u);
  EXPECT_EQ(got[1].text, "b");
  EXPECT_EQ(got[1].line, 2u);
  EXPECT_EQ(got[2].text, "c");
  EXPECT_EQ(got[2].line, 5u);
  EXPECT_TRUE(clauses(" ; \n# only a comment").empty());
  EXPECT_EQ(join(got), "a;b;c");
}

TEST(Spec, KeyValuesTrimAndSkipEmptyItems) {
  const KeyValues kv = key_values(" a = 1 ,, b=two ,", Context{"t"});
  ASSERT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv.at("a"), "1");
  EXPECT_EQ(kv.at("b"), "two");
}

TEST(Spec, KeyValuesRejectDuplicateAndHalfEmptyPairs) {
  const Context ctx{"demo spec", "x"};
  for (const char* bad : {"a=1,a=2", "k=", "=v", "k", "a=1, a =3"}) {
    EXPECT_THROW((void)key_values(bad, ctx), std::invalid_argument) << bad;
  }
  // Keys already collected from an earlier clause count as duplicates too.
  const KeyValues first = key_values("a=1", ctx);
  EXPECT_THROW((void)key_values("a=2", ctx, first), std::invalid_argument);
  EXPECT_EQ(key_values("b=2", ctx, first).size(), 2u);
}

TEST(Spec, NumberRejectsNonFiniteAndTrailingGarbage) {
  EXPECT_DOUBLE_EQ(number("2.5", "k"), 2.5);
  EXPECT_DOUBLE_EQ(number("-1e3", "k"), -1000.0);
  for (const char* bad :
       {"nan", "inf", "-inf", "1e999", "1.5x", "", " 1", "0x10", "1,5"}) {
    EXPECT_THROW((void)number(bad, "k"), std::invalid_argument) << bad;
  }
}

TEST(Spec, CountRejectsFractionsNegativesAndOutOfRange) {
  EXPECT_EQ(count("0", "n"), 0u);
  EXPECT_EQ(count("7", "n"), 7u);
  EXPECT_EQ(count("9", "n", {}, 10), 9u);
  for (const char* bad : {"2.5", "-1", "4294967295", "nan", "x"}) {
    EXPECT_THROW((void)count(bad, "n"), std::invalid_argument) << bad;
  }
  EXPECT_THROW((void)count("10", "n", {}, 10), std::invalid_argument);
}

TEST(Spec, OnOffAcceptsEveryDocumentedSpelling) {
  for (const char* on : {"on", "true", "1"}) EXPECT_TRUE(on_off(on, "b")) << on;
  for (const char* off : {"off", "false", "0"}) {
    EXPECT_FALSE(on_off(off, "b")) << off;
  }
  for (const char* bad : {"yes", "ON", "", "2"}) {
    EXPECT_THROW((void)on_off(bad, "b"), std::invalid_argument) << bad;
  }
}

TEST(Spec, FmtIsPercentG) {
  EXPECT_EQ(fmt(1500.0), "1500");
  EXPECT_EQ(fmt(0.05), "0.05");
  EXPECT_EQ(fmt(1e-7), "1e-07");
}

TEST(Spec, ErrorsCarryContextAndQuoteTheOffendingText) {
  EXPECT_EQ(error_of([] {
              (void)number("x", "at", {"fault-spec clause", "c:at=x"});
            }),
            "fault-spec clause 'c:at=x': malformed number for 'at': 'x'");
  EXPECT_EQ(error_of([] {
              (void)number("nan", "count", {"workload-trace", {}, 2});
            }),
            "workload-trace line 2: malformed number for 'count': 'nan'");
  EXPECT_EQ(error_of([] { (void)number("abc", "--horizon-ms"); }),
            "malformed number for '--horizon-ms': 'abc'");
}

TEST(Spec, ResolveReadsAtFilesAndPassesInlineTextThrough) {
  EXPECT_EQ(resolve("a:1;b:2", "demo"), "a:1;b:2");
  const std::string path = ::testing::TempDir() + "/spec_test_resolve.txt";
  {
    std::ofstream out(path);
    out << "a:1\r\nb:2\r\n";
  }
  EXPECT_EQ(resolve("@" + path, "demo"), "a:1\r\nb:2\r\n");
  std::remove(path.c_str());
  EXPECT_EQ(error_of([&] { (void)resolve("@" + path, "demo"); }),
            "demo file '" + path + "' is unreadable");
}

}  // namespace
}  // namespace esg::spec
