#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>
#include <string>

#include "bench_report.hpp"

namespace bistdse::bench {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchReport, WritesTheLayoutByteForByte) {
  Report report("demo");
  report.Run().Set("patterns", std::uint64_t{4096});
  report.AddRow("results")
      .Set("name", "a\"b\\c\x01")
      .Set("count", std::uint64_t{18446744073709551615u})
      .Set("delta", -2)
      .Set("ok", true);
  Row& reals = report.AddRow("reals");
  report.AddRow("results").Set("name", Hex(0xabc)).Set("count", 0);
  // A row filled after a later AddRow: the reference stays valid.
  reals.Set("whole", 3.0)
      .Set("rate", 0.25)
      .Set("tiny", 1e-6)
      .Set("third", 1.0 / 3.0)
      .Set("nan", std::nan(""))
      .Set("inf", -std::numeric_limits<double>::infinity());
  report.AtMost("rate", 0.25, 0.5);
  report.Equal("hash", Hex(1), Hex(1));

  const std::string path = ::testing::TempDir() + "bench_report_layout.json";
  testing::internal::CaptureStdout();
  EXPECT_EQ(report.Finish(path), 0);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("gate rate: 0.25 <= 0.5 ... ok"), std::string::npos);

  const std::string run =
      "{\"cpu\": \"" + sim::simd::CpuFeatureString() +
      "\", \"simd_backend\": \"" + sim::simd::SimdBackendName() +
      "\", \"pool_workers\": " +
      std::to_string(util::ThreadPool::Global().WorkerCount()) +
      ", \"git_sha\": \"" + GitSha() + "\", \"patterns\": 4096}";
  EXPECT_EQ(ReadFile(path),
            "{\n"
            "  \"benchmark\": \"demo\",\n"
            "  \"run\": " + run + ",\n"
            "  \"tables\": {\n"
            "    \"results\": [\n"
            "      {\"name\": \"a\\\"b\\\\c\\u0001\", \"count\": "
            "18446744073709551615, \"delta\": -2, \"ok\": true},\n"
            "      {\"name\": \"0x0000000000000abc\", \"count\": 0}\n"
            "    ],\n"
            "    \"reals\": [\n"
            "      {\"whole\": 3, \"rate\": 0.25, \"tiny\": 1e-06, \"third\": "
            "0.3333333333333333, \"nan\": null, \"inf\": null}\n"
            "    ]\n"
            "  },\n"
            "  \"gates\": [\n"
            "    {\"name\": \"rate\", \"passed\": true, \"value\": 0.25, "
            "\"limit\": 0.5},\n"
            "    {\"name\": \"hash\", \"passed\": true, \"value\": "
            "\"0x0000000000000001\", \"limit\": \"0x0000000000000001\"}\n"
            "  ]\n"
            "}\n");
}

TEST(BenchReport, GitShaIsACommitOrUnknown) {
  const std::string sha = GitSha();
  EXPECT_TRUE(sha == "unknown" ||
              std::regex_match(sha, std::regex("[0-9a-f]{40}(-dirty)?")))
      << sha;
}

TEST(BenchReport, EmptyReportIsValid) {
  Report report("empty");
  const std::string path = ::testing::TempDir() + "bench_report_empty.json";
  testing::internal::CaptureStdout();
  EXPECT_EQ(report.Finish(path), 0);
  testing::internal::GetCapturedStdout();
  const std::string text = ReadFile(path);
  EXPECT_NE(text.find("\"tables\": {},\n  \"gates\": []\n}\n"),
            std::string::npos)
      << text;
}

TEST(BenchReport, ExitStatusNamesTheFailedGate) {
  const std::string path = ::testing::TempDir() + "bench_report_gates.json";
  Report passing("gates");
  passing.AtLeast("front_size[islands=1]", 5, 4);
  passing.Above("cache_hits", 1, 0);
  passing.Equal("answered", std::uint64_t{96}, 96);
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(passing.Finish(path), 0);
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");

  Report failing("gates");
  failing.AtLeast("front_size[islands=1]", 3, 4);
  failing.AtMost("rel_error", 0.01, 0.05);
  testing::internal::CaptureStdout();
  testing::internal::CaptureStderr();
  EXPECT_EQ(failing.Finish(path), 1);
  const std::string out = testing::internal::GetCapturedStdout();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("gate front_size[islands=1]: 3 >= 4 ... FAILED"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("gate rel_error: 0.01 <= 0.05 ... ok"), std::string::npos);
  EXPECT_EQ(err, "gates: failed gates: front_size[islands=1]\n");
  // The file is written whatever the verdict, for CI to upload.
  EXPECT_NE(ReadFile(path).find("{\"name\": \"front_size[islands=1]\", "
                                "\"passed\": false, \"value\": 3, "
                                "\"limit\": 4}"),
            std::string::npos);
}

TEST(BenchReport, UnwritablePathFails) {
  Report report("unwritable");
  testing::internal::CaptureStderr();
  EXPECT_EQ(report.Finish(::testing::TempDir() + "no/such/dir/x.json"), 1);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("cannot write"),
            std::string::npos);
}

}  // namespace
}  // namespace bistdse::bench
