// Tests for the shared bench command line (bench/bench_util.h): every flag
// the CI bench gates pass still parses, and malformed values or unknown
// flags are rejected instead of silently becoming defaults.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_util.h"

namespace ishare {
namespace {

bool Parse(std::vector<std::string> args, BenchConfig* c, std::string* err) {
  std::vector<char*> argv = {const_cast<char*>("bench")};
  for (std::string& a : args) argv.push_back(a.data());
  return BenchConfig::TryParse(static_cast<int>(argv.size()), argv.data(), c,
                               err);
}

TEST(BenchFlags, AcceptsEveryDocumentedFlag) {
  BenchConfig c;
  std::string err;
  ASSERT_TRUE(Parse({"--sf=0.02", "--max_pace=30", "--seed=123",
                     "--threads=4", "--json=out.json"},
                    &c, &err))
      << err;
  EXPECT_EQ(c.sf, 0.02);
  EXPECT_EQ(c.max_pace, 30);
  EXPECT_EQ(c.seed, 123u);
  EXPECT_EQ(c.threads, 4);
  EXPECT_EQ(c.json_path, "out.json");
  EXPECT_FALSE(c.quick);

  ASSERT_TRUE(Parse({"--quick"}, &c, &err)) << err;
  EXPECT_TRUE(c.quick);
  EXPECT_EQ(c.sf, 0.004);
  EXPECT_EQ(c.max_pace, 16);
  EXPECT_EQ(c.seed, 7u);
  ASSERT_TRUE(Parse({}, &c, &err));
  EXPECT_EQ(c.threads, 1);
}

TEST(BenchFlags, RejectsMalformedValues) {
  for (const char* bad :
       {"--seed=abc", "--seed=", "--seed=-1", "--seed= 5", "--seed=5x",
        "--seed=99999999999999999999", "--sf=", "--sf=abc", "--sf=0",
        "--sf=-0.1", "--sf=nan", "--sf=inf", "--max_pace=0",
        "--max_pace=1.5", "--threads=0", "--threads=two", "--threads=100000",
        "--json="}) {
    BenchConfig c;
    std::string err;
    EXPECT_FALSE(Parse({bad}, &c, &err)) << bad;
    EXPECT_NE(err.find(bad), std::string::npos) << err;
  }
}

TEST(BenchFlags, RejectsUnknownFlags) {
  for (const char* bad : {"--speedup_gate", "--quick=1", "-quick", "seed=1"}) {
    BenchConfig c;
    std::string err;
    EXPECT_FALSE(Parse({"--quick", bad}, &c, &err)) << bad;
    EXPECT_NE(err.find("unknown flag"), std::string::npos) << err;
  }
}

TEST(BenchFlagsDeathTest, ParseExitsTwoOnBadInput) {
  std::string arg = "--seed=abc";
  char* argv[] = {const_cast<char*>("bench"), arg.data()};
  EXPECT_EXIT(BenchConfig::Parse(2, argv), ::testing::ExitedWithCode(2),
              "malformed value in --seed=abc");
}

}  // namespace
}  // namespace ishare
