// Unit tests for work counters, summaries, and table rendering.

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "stats/counters.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

namespace vstest {
namespace {

using vs::stats::fit_linear;
using vs::stats::MsgKind;
using vs::stats::Summary;
using vs::stats::Table;
using vs::stats::WorkCounters;

TEST(Counters, RecordsByKindAndLevel) {
  WorkCounters c(3);
  c.record(MsgKind::kGrow, 1, 5);
  c.record(MsgKind::kGrow, 2, 7);
  c.record(MsgKind::kFind, 0, 2);
  EXPECT_EQ(c.messages(MsgKind::kGrow), 2);
  EXPECT_EQ(c.work(MsgKind::kGrow), 12);
  EXPECT_EQ(c.messages_at_level(1), 1);
  EXPECT_EQ(c.work_at_level(2), 7);
  EXPECT_EQ(c.total_messages(), 3);
  EXPECT_EQ(c.total_work(), 14);
}

TEST(Counters, MoveVsFindSplit) {
  WorkCounters c(2);
  c.record(MsgKind::kGrow, 0, 1);
  c.record(MsgKind::kShrinkUpd, 1, 3);
  c.record(MsgKind::kFindQuery, 1, 4);
  c.record(MsgKind::kFound, 0, 1);
  c.record(MsgKind::kClient, 0, 1);
  EXPECT_EQ(c.move_work(), 4);
  EXPECT_EQ(c.find_work(), 5);
  EXPECT_EQ(c.move_messages(), 2);
  EXPECT_EQ(c.find_messages(), 2);
}

TEST(Counters, ResetAndValidation) {
  WorkCounters c(1);
  EXPECT_THROW(c.record(MsgKind::kGrow, 5, 1), vs::Error);
  EXPECT_THROW(c.record(MsgKind::kGrow, 0, -1), vs::Error);
}

TEST(Counters, KindNames) {
  EXPECT_EQ(vs::stats::to_string(MsgKind::kGrowNbr), "growNbr");
  EXPECT_EQ(vs::stats::to_string(MsgKind::kFindAck), "findAck");
  EXPECT_TRUE(vs::stats::is_move_kind(MsgKind::kShrinkUpd));
  EXPECT_FALSE(vs::stats::is_move_kind(MsgKind::kFound));
}

TEST(SummaryTest, Moments) {
  Summary s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.1180, 1e-3);
}

TEST(SummaryTest, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_THROW(std::ignore = s.percentile(101), vs::Error);
}

TEST(SummaryTest, EmptyThrows) {
  Summary s;
  EXPECT_THROW(std::ignore = s.mean(), vs::Error);
}

TEST(FitLinear, RecoversLine) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const auto fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(FitLinear, RejectsDegenerate) {
  std::vector<double> x{1};
  std::vector<double> y{1};
  EXPECT_THROW(std::ignore = fit_linear(x, y), vs::Error);
  std::vector<double> same_x{2, 2, 2};
  std::vector<double> ys{1, 2, 3};
  EXPECT_THROW(std::ignore = fit_linear(same_x, ys), vs::Error);
}

TEST(TableTest, AlignedOutput) {
  Table t({"d", "work", "ratio"});
  t.add_row({std::int64_t{1}, std::int64_t{10}, 1.5});
  t.add_row({std::int64_t{100}, std::int64_t{2000}, 12.25});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("work"), std::string::npos);
  EXPECT_NE(out.find("2000"), std::string::npos);
  EXPECT_NE(out.find("12.250"), std::string::npos);
  // Two data rows + header.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({std::string("x"), std::int64_t{7}});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\nx,7\n");
}

TEST(TableTest, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({std::int64_t{1}}), vs::Error);
}

}  // namespace
}  // namespace vstest
