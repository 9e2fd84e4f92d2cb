// BenchMain, the one entry point of every bench binary: it must refuse an
// argument no flag reads before the body runs (a mistyped or bare flag would
// otherwise run the default configuration), hand the declared flags to the
// body, and fail the run when --json or --trace cannot be written.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"

namespace o1mem {
namespace {

const std::vector<BenchFlag> kFlags = {{"workers", BenchFlag::Kind::kWholeNumber},
                                       {"shards", BenchFlag::Kind::kWholeNumber},
                                       {"campaign"},
                                       {"chaos-log", BenchFlag::Kind::kSwitch},
                                       {"tier", BenchFlag::Kind::kText, {"on", "off"}}};

// Runs BenchMain over `args` (argv[0] is supplied) with a body that only
// records that it ran and, optionally, does `extra`.
int RunBench(std::vector<std::string> args, bool* ran,
             const std::function<void(BenchJson&, const BenchArgs&)>& extra = nullptr) {
  args.insert(args.begin(), "bench_main_test");
  std::vector<char*> argv;
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  *ran = false;
  return BenchMain(static_cast<int>(argv.size()), argv.data(), "bench_main_test", kFlags,
                   [&](BenchJson& json, const BenchArgs& parsed) {
                     *ran = true;
                     if (extra) {
                       extra(json, parsed);
                     }
                   });
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(BenchMainTest, RejectsArgumentsNoFlagReadsWithoutRunning) {
  const std::vector<std::vector<std::string>> rejected = {
      {"--bogus=1"},                       // unknown flag
      {"--campain=default"},               // mistyped flag
      {"--campaign"},                      // valued flag without =value
      {"--shards=4", "--campaign"},        // ... also after a good flag
      {"--benchmark_filter=^$"},           // a leftover google-benchmark flag
      {"--shards=abc"},                    // not a whole number
      {"--shards=-1"},
      {"--shards=4x"},
      {"--workers="},
      {"--chaos-seed=7"},                  // not declared by this bench
      {"--chaos-log=1"},                   // switch with a value
      {"--shards=4", "--shards=8"},        // given twice
      {"--json"},                          // --json/--trace need a path
      {"shards=4"},                        // not a flag
      {"--tier=bogus"},                    // not one of the flag's choices
      {"--tier=ON"},
      {"--tier="},
  };
  for (const std::vector<std::string>& args : rejected) {
    bool ran = true;
    EXPECT_EQ(RunBench(args, &ran), 2) << args.back();
    EXPECT_FALSE(ran) << args.back();
  }
}

TEST(BenchMainTest, DeclaredFlagsReachTheBody) {
  bool ran = false;
  BenchArgs seen;
  EXPECT_EQ(RunBench({"--shards=4", "--campaign=default", "--chaos-log"}, &ran,
                     [&](BenchJson&, const BenchArgs& args) { seen = args; }),
            0);
  EXPECT_TRUE(ran);
  EXPECT_EQ(seen.Number("shards"), 4u);
  EXPECT_EQ(seen.Text("campaign"), "default");
  EXPECT_TRUE(seen.Switch("chaos-log"));
  EXPECT_EQ(seen.Number("workers"), std::nullopt);
  EXPECT_EQ(seen.Text("json"), std::nullopt);
}

TEST(BenchMainTest, ChoiceFlagsTakeOnlyTheirChoices) {
  for (const std::string value : {"on", "off"}) {
    bool ran = false;
    BenchArgs seen;
    EXPECT_EQ(RunBench({"--tier=" + value}, &ran,
                       [&](BenchJson&, const BenchArgs& args) { seen = args; }),
              0);
    EXPECT_TRUE(ran);
    EXPECT_EQ(seen.Text("tier"), value);
  }
}

TEST(BenchMainTest, EmptyValueIsPassedThrough) {
  bool ran = false;
  BenchArgs seen;
  EXPECT_EQ(RunBench({"--campaign="}, &ran,
                     [&](BenchJson&, const BenchArgs& args) { seen = args; }),
            0);
  EXPECT_TRUE(ran);
  EXPECT_EQ(seen.Text("campaign"), "");
}

TEST(BenchMainTest, UnwritableJsonOrTraceFailsTheRun) {
  const std::string missing_dir = ::testing::TempDir() + "/bench_main_test_no_such_dir";
  bool ran = false;
  EXPECT_NE(RunBench({"--json=" + missing_dir + "/x.json"}, &ran), 0);
  EXPECT_TRUE(ran);
  EXPECT_NE(RunBench({"--trace=" + missing_dir + "/t.json"}, &ran), 0);
  EXPECT_TRUE(ran);
}

TEST(BenchMainTest, GoodRunWritesEmittedTableToJson) {
  const std::string path = ::testing::TempDir() + "/bench_main_test.json";
  std::remove(path.c_str());
  bool ran = false;
  EXPECT_EQ(RunBench({"--json=" + path, "--workers=3"}, &ran,
                     [](BenchJson& json, const BenchArgs& args) {
                       Table table("emitted");
                       table.AddRow({"workers"});
                       table.AddRow({std::to_string(*args.Number("workers"))});
                       json.Emit(table);
                     }),
            0);
  EXPECT_TRUE(ran);
  const std::string text = ReadFile(path);
  EXPECT_EQ(text.rfind("{\"bench\":\"bench_main_test\"", 0), 0u) << text;
  EXPECT_NE(text.find("\"tables\":[{\"title\":\"emitted\",\"columns\":[\"workers\"],"
                      "\"rows\":[[\"3\"]]}"),
            std::string::npos)
      << text;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace o1mem
