#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "dse/parallel.hpp"
#include "model/spec_io.hpp"

namespace bistdse::model {
namespace {

ParsedSpec ParseSpecString(const std::string& text) {
  std::istringstream in(text);
  return ParseSpec(in);
}

const char* kTinySpec = R"(
# two ECUs, one bus, sensor -> ctrl -> actuator
resource gw gateway 20 1e-6
resource can0 bus 1 0 500000
resource ecu1 ecu 10 2e-5
resource ecu2 ecu 14 2e-5
resource s0 sensor 2 0
resource a0 actuator 3 0
link gw can0
link ecu1 can0
link ecu2 can0
link s0 can0
link a0 can0

task sense
task ctrl
task act
message speed sense ctrl 2 10
message torque ctrl act 4 20
mapping sense s0
mapping ctrl ecu1
mapping ctrl ecu2
mapping act a0

profile ecu1 1 500 99.8 4.9 2400000
profile ecu1 2 500 95.7 1.7 455000
profile ecu2 1 500 99.8 4.9 2400000
cuttype ecu2 1
)";

TEST(SpecIo, ParsesTinySpec) {
  auto parsed = ParseSpecString(kTinySpec);
  EXPECT_EQ(parsed.spec.Architecture().ResourceCount(), 6u);
  EXPECT_EQ(parsed.spec.Application().TaskCount(), 3u);
  EXPECT_EQ(parsed.spec.Application().MessageCount(), 2u);
  EXPECT_EQ(parsed.spec.Mappings().size(), 4u);
  EXPECT_EQ(parsed.profiles.size(), 2u);
  EXPECT_EQ(parsed.cut_types.size(), 1u);

  const auto augmentation = parsed.Augment();
  EXPECT_EQ(augmentation.programs_by_ecu.size(), 2u);
  // ecu1: 2 profiles, ecu2: 1 profile with cut type 1.
  const auto ecu2 = parsed.spec.Architecture().ResourceCount() - 4;  // "ecu2"
  (void)ecu2;
  std::size_t total_programs = 0;
  bool saw_type1 = false;
  for (const auto& [ecu, programs] : augmentation.programs_by_ecu) {
    total_programs += programs.size();
    for (const auto& p : programs) saw_type1 |= p.cut_type == 1;
  }
  EXPECT_EQ(total_programs, 3u);
  EXPECT_TRUE(saw_type1);
}

TEST(SpecIo, ParsedSpecIsExplorable) {
  auto parsed = ParseSpecString(kTinySpec);
  const auto augmentation = parsed.Augment();
  dse::ExplorationConfig cfg;
  cfg.evaluations = 200;
  cfg.population_size = 12;
  cfg.seed = 2;
  cfg.validate_each_decode = true;
  const auto result = dse::ExploreParallel(parsed.spec, augmentation, cfg, 1);
  EXPECT_GT(result.pareto.size(), 1u);
}

TEST(SpecIo, RoundTrip) {
  auto parsed = ParseSpecString(kTinySpec);
  std::ostringstream out;
  WriteSpec(parsed.spec, parsed.profiles, parsed.cut_types, out);
  auto reparsed = ParseSpecString(out.str());
  EXPECT_EQ(reparsed.spec.Architecture().ResourceCount(),
            parsed.spec.Architecture().ResourceCount());
  EXPECT_EQ(reparsed.spec.Application().TaskCount(),
            parsed.spec.Application().TaskCount());
  EXPECT_EQ(reparsed.spec.Application().MessageCount(),
            parsed.spec.Application().MessageCount());
  EXPECT_EQ(reparsed.spec.Mappings().size(), parsed.spec.Mappings().size());
  EXPECT_EQ(reparsed.profiles.size(), parsed.profiles.size());
  EXPECT_EQ(reparsed.cut_types, parsed.cut_types);
}

TEST(SpecIo, ReportsErrorsWithLineNumbers) {
  EXPECT_THROW(ParseSpecString("frobnicate x\n"), std::runtime_error);
  EXPECT_THROW(ParseSpecString("resource x widget 1 0\n"), std::runtime_error);
  EXPECT_THROW(ParseSpecString("link a b\n"), std::runtime_error);
  EXPECT_THROW(ParseSpecString("task t\nmessage m t t 4 10\n"),
               std::runtime_error);
  EXPECT_THROW(ParseSpecString("resource e ecu 1 0\nprofile x 1 500 99 4 100\n"),
               std::runtime_error);
  try {
    ParseSpecString("resource gw gateway 1 0\nbogus\n");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

/// The message ParseSpecString throws for `text`, or "" if it parses.
std::string ParseError(const std::string& text) {
  try {
    ParseSpecString(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// Values the timing analysis and the network engine cannot use are
// rejected at the spec line that holds them, naming the field.
TEST(SpecIo, RejectsUnusableBusAndMessageFields) {
  const std::string bus = "resource can0 bus 1 0 ";
  EXPECT_NE(ParseError(bus + "fast\n").find("line 1: resource can0: invalid "
                                            "bitrate 'fast'"),
            std::string::npos);
  EXPECT_NE(ParseError(bus + "500k\n").find("invalid bitrate '500k'"),
            std::string::npos);
  for (const char* rate : {"0", "-500000"}) {
    EXPECT_NE(ParseError(bus + rate + "\n")
                  .find("bus can0: bitrate must be finite and > 0"),
              std::string::npos)
        << rate;
  }
  EXPECT_NE(ParseError("resource gw gateway 1 0 nan\n").find("invalid bitrate"),
            std::string::npos);
  // A non-bus resource ignores its (valid) bitrate, as before.
  EXPECT_EQ(ParseError("resource gw gateway 1 0 0\n"), "");

  const std::string tasks = "task a\ntask b\n";
  EXPECT_NE(ParseError(tasks + "message m a b 2 0\n")
                .find("line 3: message m: period must be finite and > 0"),
            std::string::npos);
  EXPECT_NE(ParseError(tasks + "message m a b 2 -5\n")
                .find("message m: period must be finite and > 0, got -5"),
            std::string::npos);
  EXPECT_NE(ParseError(tasks + "message m a b 9 10\n")
                .find("message m: payload must be at most 8 bytes, got 9"),
            std::string::npos);
  EXPECT_NE(ParseError(tasks + "message m a b 4294967295 10\n")
                .find("payload must be at most 8 bytes, got 4294967295"),
            std::string::npos);
  EXPECT_EQ(ParseError(tasks + "message m a b 8 0.5\n"), "");
}

// Costs, profile fields and cut types are read as strictly as the bitrate:
// a sign, a word, a value out of range or a token after a line's last field
// fails naming the line and the field.
TEST(SpecIo, RejectsMalformedNumericFieldsAndExtraTokens) {
  const std::string ecu = "resource ecu1 ecu 10 2e-5\n";
  const std::string tasks = "task a\ntask b\n";
  const std::pair<std::string, std::string> cases[] = {
      {ecu + "profile ecu1 2 500 95.7 1.7 -1\n",
       "line 2: profile ecu1: invalid data_bytes '-1'"},
      {"resource ecu2 ecu -14 -2e-5\n",
       "line 1: resource ecu2: base_cost must be >= 0, got -14"},
      {"resource ecu2 ecu 14 -2e-5\n",
       "resource ecu2: cost_per_byte must be >= 0, got -2e-5"},
      {"resource gw gateway twenty 1e-6\n",
       "resource gw: invalid base_cost 'twenty'"},
      {"resource gw gateway 20 1e-6 500000 extra tokens\n",
       "line 1: resource gw: unexpected 'extra' after the last field"},
      {ecu + "profile ecu1 -2 500 95.7 1.7 100\n",
       "profile ecu1: invalid number '-2'"},
      {ecu + "profile ecu1 2 5e2 95.7 1.7 100\n",
       "profile ecu1: invalid prps '5e2'"},
      {ecu + "profile ecu1 2 500 100.5 1.7 100\n",
       "profile ecu1: coverage must be in [0, 100], got 100.5"},
      {ecu + "profile ecu1 2 500 -0.5 1.7 100\n",
       "profile ecu1: coverage must be in [0, 100], got -0.5"},
      {ecu + "profile ecu1 2 500 nan 1.7 100\n",
       "profile ecu1: invalid coverage 'nan'"},
      {ecu + "profile ecu1 2 500 95.7 -1.7 100\n",
       "profile ecu1: runtime_ms must be >= 0, got -1.7"},
      {ecu + "profile ecu1 2 500 95.7 1.7 100 7\n",
       "profile ecu1: unexpected '7' after the last field"},
      {ecu + "cuttype ecu1 -1\n", "line 2: cuttype ecu1: invalid type '-1'"},
      {ecu + "cuttype ecu1 4294967296\n",
       "cuttype ecu1: invalid type '4294967296'"},
      {ecu + "cuttype ecu1 1 2\n", "cuttype ecu1: unexpected '2'"},
      {tasks + "message m a b two 10\n", "message m: invalid payload 'two'"},
      {tasks + "message m a b 2 10ms\n", "message m: invalid period '10ms'"},
      {tasks + "message m a b 2 10 x\n", "message m: unexpected 'x'"},
      {"task a b\n", "line 1: task a: unexpected 'b'"},
      {ecu + "resource can0 bus 1 0\nlink ecu1 can0 gw\n",
       "line 3: link ecu1: unexpected 'gw'"},
      {tasks + ecu + "mapping a ecu1 ecu1\n", "mapping a: unexpected 'ecu1'"},
  };
  for (const auto& [text, error] : cases) {
    EXPECT_NE(ParseError(text).find(error), std::string::npos)
        << text << " -> " << ParseError(text);
  }
  // The ends of every range still parse, and the bitrate stays optional.
  EXPECT_EQ(ParseError(ecu + "resource gw gateway 0 0\n"
                             "resource can0 bus 0 0 500000\n"
                             "profile ecu1 0 0 0 0 0\n"
                             "profile ecu1 4294967295 18446744073709551615 100 "
                             "0 18446744073709551615\n"
                             "cuttype ecu1 4294967295\n"),
            "");
}

TEST(SpecIo, MissingFileNamesThePath) {
  try {
    ParseSpecFile("no/such/dir/missing.spec");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open no/such/dir/missing.spec"),
              std::string::npos);
  }
}

TEST(SpecIo, MessageWithMultipleReceivers) {
  auto parsed = ParseSpecString(R"(
resource gw gateway 1 0
resource e1 ecu 1 0
resource can0 bus 1 0 500000
link gw can0
link e1 can0
task a
task b
task c
message m a b,c 8 10
mapping a e1
mapping b e1
mapping c e1
)");
  const auto& m = parsed.spec.Application().GetMessage(0);
  EXPECT_EQ(m.receivers.size(), 2u);
}

}  // namespace
}  // namespace bistdse::model
