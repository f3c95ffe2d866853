// Edge coverage for the common module: error messages, logging levels,
// time formatting, and the message stream operators.

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "sim/time.hpp"
#include "vsa/messages.hpp"

namespace vstest {
namespace {

TEST(ErrorMessages, CarryExpressionLocationAndDetail) {
  try {
    const int x = 3;
    VS_REQUIRE(x == 4, "x was " << x);
    FAIL() << "should have thrown";
  } catch (const vs::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("x == 4"), std::string::npos) << what;
    EXPECT_NE(what.find("test_common_extras.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("x was 3"), std::string::npos) << what;
  }
}

TEST(ErrorMessages, MessageIsOptional) {
  EXPECT_THROW(VS_REQUIRE(false), vs::Error);
}

// The failure path is formatted out of line: a message may still read the
// caller's members through `this`, and the location is the check's own.
struct Budget {
  int spent = 7;
  int limit = 5;
  void charge(int* line) const {
    *line = __LINE__ + 1;
    VS_REQUIRE(spent <= limit, "spent " << spent << " of " << limit);
  }
};

TEST(ErrorMessages, ReadMembersAndReportTheCallSiteLine) {
  const Budget budget;
  int line = 0;
  try {
    budget.charge(&line);
    FAIL() << "should have thrown";
  } catch (const vs::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("spent <= limit"), std::string::npos) << what;
    EXPECT_NE(what.find("spent 7 of 5"), std::string::npos) << what;
    EXPECT_NE(what.find("test_common_extras.cpp:" + std::to_string(line)),
              std::string::npos)
        << what;
  }
}

TEST(Logging, ThresholdGatesOutput) {
  const auto original = vs::log_level();
  vs::set_log_level(vs::LogLevel::kWarn);
  // Can't capture stderr portably here; assert the level round-trips and
  // that logging below/at threshold does not throw.
  EXPECT_EQ(vs::log_level(), vs::LogLevel::kWarn);
  VS_DEBUG("suppressed " << 1);
  VS_WARN("emitted " << 2);
  vs::set_log_level(original);
}

TEST(TimeFormatting, StreamsReadably) {
  std::ostringstream os;
  os << vs::sim::TimePoint{1500} << " " << vs::sim::TimePoint::never() << " "
     << vs::sim::Duration::millis(2);
  EXPECT_EQ(os.str(), "t=1500us ∞ 2000us");
}

TEST(TimeArithmetic, CompoundAssignment) {
  vs::sim::Duration d = vs::sim::Duration::micros(10);
  d += vs::sim::Duration::micros(5);
  EXPECT_EQ(d.count(), 15);
  EXPECT_DOUBLE_EQ(vs::sim::Duration::seconds(2).as_seconds(), 2.0);
}

TEST(MessageStreaming, ShowsKindAndFields) {
  vs::vsa::Message m;
  m.type = vs::stats::MsgKind::kFindAck;
  m.from_cluster = vs::ClusterId{12};
  m.target = vs::TargetId{0};
  m.find_id = vs::FindId{7};
  m.ack_pointer = vs::ClusterId{3};
  std::ostringstream os;
  os << m;
  const std::string text = os.str();
  EXPECT_NE(text.find("findAck"), std::string::npos);
  EXPECT_NE(text.find("from=12"), std::string::npos);
  EXPECT_NE(text.find("find=7"), std::string::npos);
  EXPECT_NE(text.find("x=3"), std::string::npos);
}

TEST(MessageStreaming, OmitsInvalidOptionalFields) {
  vs::vsa::Message m;
  m.type = vs::stats::MsgKind::kGrow;
  m.from_cluster = vs::ClusterId{5};
  std::ostringstream os;
  os << m;
  EXPECT_EQ(os.str().find("find="), std::string::npos);
  EXPECT_EQ(os.str().find("x="), std::string::npos);
}

}  // namespace
}  // namespace vstest
