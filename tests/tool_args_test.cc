#include "tool_args.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

/// Strict flag parsing: a malformed numeric flag is a hard error (ok()
/// flips false), never atof/atol's silent zero.

namespace edge::tools {
namespace {

/// Builds an Args from a literal argv (argv[0] is the tool name).
Args MakeArgs(std::vector<const char*> argv, int first = 1) {
  argv.insert(argv.begin(), "tool");
  return Args(static_cast<int>(argv.size()),
              const_cast<char**>(argv.data()), first);
}

TEST(ToolArgsTest, ParsesFlagsAndBooleanSwitches) {
  Args args = MakeArgs({"--epochs", "12", "--out", "file.tsv", "--covid-filter"});
  EXPECT_TRUE(args.ok());
  EXPECT_TRUE(args.Has("epochs"));
  EXPECT_EQ(args.Get("out"), "file.tsv");
  EXPECT_EQ(args.Get("covid-filter"), "true");
  EXPECT_EQ(args.Get("missing", "fallback"), "fallback");
}

TEST(ToolArgsTest, RejectsNonFlagArguments) {
  EXPECT_FALSE(MakeArgs({"epochs", "12"}).ok());
  EXPECT_FALSE(MakeArgs({"--epochs", "12", "dangling"}).ok());
}

TEST(ToolArgsTest, GetIntParsesValidValues) {
  Args args = MakeArgs({"--epochs", "25", "--delta", "-3"});
  EXPECT_EQ(args.GetInt("epochs", 1), 25);
  EXPECT_EQ(args.GetInt("delta", 1), -3);
  EXPECT_EQ(args.GetInt("missing", 42), 42);  // Fallback, not an error.
  EXPECT_TRUE(args.ok());
}

TEST(ToolArgsTest, GetIntRejectsMalformedValues) {
  // The satellite contract: --epochs=ten is a hard error, not atol's 0.
  for (const char* bad : {"ten", "10x", "1.5", "", " 7", "0x10"}) {
    Args args = MakeArgs({"--epochs", bad});
    EXPECT_EQ(args.GetInt("epochs", 99), 99) << "value '" << bad << "'";
    EXPECT_FALSE(args.ok()) << "value '" << bad << "' accepted";
  }
}

TEST(ToolArgsTest, GetDoubleParsesValidValues) {
  Args args = MakeArgs({"--delay", "2.5", "--neg", "-0.25", "--sci", "1e-3"});
  EXPECT_DOUBLE_EQ(args.GetDouble("delay", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(args.GetDouble("neg", 0.0), -0.25);
  EXPECT_DOUBLE_EQ(args.GetDouble("sci", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(args.GetDouble("missing", 7.5), 7.5);
  EXPECT_TRUE(args.ok());
}

TEST(ToolArgsTest, GetDoubleRejectsMalformedAndNonFiniteValues) {
  for (const char* bad : {"fast", "2.5ms", "", "inf", "-inf", "nan"}) {
    Args args = MakeArgs({"--delay", bad});
    EXPECT_DOUBLE_EQ(args.GetDouble("delay", 9.5), 9.5) << "value '" << bad << "'";
    EXPECT_FALSE(args.ok()) << "value '" << bad << "' accepted";
  }
}

TEST(ToolArgsTest, OkStaysTrueWhenOnlyValidFlagsAreRead) {
  Args args = MakeArgs({"--epochs", "3", "--delay", "0.5"});
  args.GetInt("epochs", 1);
  args.GetDouble("delay", 1.0);
  args.GetInt("absent", 10);
  EXPECT_TRUE(args.ok());
}

TEST(ToolArgsTest, UnreadListsFlagsNoAccessorConsumed) {
  // A stale --max-delay-ms or a typo like --wrokers must not be ignored.
  Args args = MakeArgs({"--workers", "2", "--max-delay-ms", "1", "--wrokers",
                        "3", "--listen", "0", "--help"});
  args.GetInt("workers", 1);
  EXPECT_EQ(args.Unread(), (std::vector<std::string>{"help", "listen",
                                                     "max-delay-ms", "wrokers"}));
  // Every accessor counts as a read, and so does a lookup of an absent flag
  // or one whose value failed to parse.
  args.Has("help");
  args.Get("listen");
  args.GetDouble("max-delay-ms", 2.0);
  args.GetInt("wrokers", 1);
  args.GetInt("absent", 1);
  EXPECT_TRUE(args.Unread().empty());
  EXPECT_TRUE(NoUnreadFlags(args));

  Args typo = MakeArgs({"--wrokers", "x"});
  EXPECT_FALSE(NoUnreadFlags(typo));
  EXPECT_TRUE(typo.ok());  // Unread flags are reported, not a parse error.
}

TEST(ToolArgsTest, ObservabilitySetupReadsMetricsOutUpFront) {
  // --metrics-out is only written at exit, yet must count as known before.
  Args args = MakeArgs({"--metrics-out", "m.json"});
  ASSERT_TRUE(SetupObservability(args));
  EXPECT_TRUE(args.Unread().empty());
}

}  // namespace
}  // namespace edge::tools
