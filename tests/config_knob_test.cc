// The experiment knob table (runtime/config_knob.h): every row's parse and
// format are exact inverses, DescribeConfig is a repro that parses back to
// the same config, and both binaries turn every malformed flag into exit 2
// with a message naming it — never an abort, never a silent run.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "runtime/config_knob.h"
#include "runtime/fuzz.h"
#include "tests/knob_samples.h"

namespace hotstuff1 {
namespace {

TEST(ConfigKnobTest, EveryRowHasAUniqueFlagAndASample) {
  std::set<std::string> flags;
  for (const ConfigKnob& knob : ConfigKnobs()) {
    EXPECT_TRUE(flags.insert(knob.flag).second) << "duplicate --" << knob.flag;
    EXPECT_EQ(KnobSamples().count(knob.flag), 1u) << "no sample for --" << knob.flag;
    EXPECT_EQ(FindKnob(knob.flag), &knob);
  }
  EXPECT_EQ(flags.size(), KnobSamples().size()) << "a sample names no row";
  EXPECT_EQ(FindKnob("oracel"), nullptr);
}

TEST(ConfigKnobTest, ForcibleAndReproBitsMatchTheExecutorContract) {
  std::set<std::string> forcible, not_repro;
  for (const ConfigKnob& knob : ConfigKnobs()) {
    if (knob.forcible) forcible.insert(knob.flag);
    if (!knob.repro) not_repro.insert(knob.flag);
  }
  EXPECT_EQ(forcible, (std::set<std::string>{"sim-jobs", "lookahead", "oracle",
                                             "strategy", "reconfig", "arrival",
                                             "offered-load", "client-groups",
                                             "cert-scheme"}));
  EXPECT_EQ(not_repro, (std::set<std::string>{"sim-jobs", "lookahead", "event_cap"}));
}

TEST(ConfigKnobTest, ParseOfFormatIsTheSameValueForEveryRow) {
  const ExperimentConfig defaults;
  for (const ConfigKnob& knob : ConfigKnobs()) {
    SCOPED_TRACE("--" + knob.flag);
    ExperimentConfig cfg;
    std::string error;
    ASSERT_TRUE(knob.parse(KnobSamples().at(knob.flag), &cfg, &error)) << error;
    EXPECT_FALSE(knob.same(cfg, defaults)) << "the sample must not be the default";
    const std::string text = knob.format(cfg);
    ASSERT_FALSE(text.empty());
    ExperimentConfig back;
    ASSERT_TRUE(knob.parse(text, &back, &error)) << text << ": " << error;
    EXPECT_TRUE(knob.same(back, cfg)) << text;
    EXPECT_EQ(knob.format(back), text);
  }
}

TEST(ConfigKnobTest, FailedParseLeavesTheConfigUntouched) {
  for (const ConfigKnob& knob : ConfigKnobs()) {
    SCOPED_TRACE("--" + knob.flag);
    const ExperimentConfig defaults;
    ExperimentConfig cfg;
    std::string error;
    EXPECT_FALSE(knob.parse("bogus!", &cfg, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_TRUE(knob.same(cfg, defaults));
  }
}

// Splits a DescribeConfig line into `--flag=value` words, undoing the single
// quotes it puts around shell-special values.
std::vector<std::string> ShellWords(const std::string& line) {
  std::vector<std::string> words(1);
  bool quoted = false;
  for (const char c : line) {
    if (c == '\'') {
      quoted = !quoted;
    } else if (c == ' ' && !quoted) {
      words.emplace_back();
    } else {
      words.back() += c;
    }
  }
  return words;
}

void ExpectReproParsesBack(const ExperimentConfig& cfg) {
  const std::string line = DescribeConfig(cfg);
  SCOPED_TRACE(line);
  ExperimentConfig back;
  std::set<std::string> seen;
  for (const std::string& word : ShellWords(line)) {
    ASSERT_EQ(word.rfind("--", 0), 0u) << word;
    const size_t eq = word.find('=');
    ASSERT_NE(eq, std::string::npos) << word;
    const ConfigKnob* knob = FindKnob(word.substr(2, eq - 2));
    ASSERT_NE(knob, nullptr) << word;
    EXPECT_TRUE(knob->repro) << "executor shape leaked into the repro: " << word;
    EXPECT_TRUE(seen.insert(knob->flag).second) << word;
    std::string error;
    ASSERT_TRUE(knob->parse(word.substr(eq + 1), &back, &error)) << word << ": " << error;
  }
  for (const ConfigKnob& knob : ConfigKnobs()) {
    if (knob.repro) {
      EXPECT_TRUE(knob.same(back, cfg)) << "--" << knob.flag;
    }
  }
}

TEST(ConfigKnobTest, DescribeConfigIsAReproOfEveryReproRow) {
  for (uint64_t seed : {0u, 3u, 7u, 12u, 31u, 58u}) {
    SCOPED_TRACE(seed);
    ExpectReproParsesBack(FuzzConfigFromSeed(seed));
  }
  for (uint64_t c = 0; c < kOverThresholdCases; c += 5) {
    ExpectReproParsesBack(OverThresholdCaseFromSeed(c).config);
  }
  // Every sample at once, shell-special values (';', '|') included.
  ExperimentConfig all;
  for (const ConfigKnob& knob : ConfigKnobs()) {
    ASSERT_TRUE(knob.parse(KnobSamples().at(knob.flag), &all, nullptr));
  }
  ExpectReproParsesBack(all);
}

TEST(ConfigKnobTest, DescribeConfigIsFlagFormInTableOrder) {
  ExperimentConfig cfg;
  cfg.n = 7;
  cfg.sim_jobs = 4;
  const std::string line = DescribeConfig(cfg);
  EXPECT_EQ(line.rfind("--protocol=hotstuff1 --n=7 --batch=100 ", 0), 0u) << line;
  EXPECT_EQ(line.find("--sim-jobs"), std::string::npos) << line;
  EXPECT_EQ(line.find("--strategy"), std::string::npos) << "empty rows are skipped";
  EXPECT_EQ(line.find("--oracle"), std::string::npos) << "off switches are skipped";
}

// --- the binaries -----------------------------------------------------------

struct Outcome {
  int exit_code = -1;  // -1: killed by a signal (an abort)
  std::string output;  // stdout + stderr
};

// Runs a sibling binary of this test (all land in the build directory).
Outcome RunTool(const std::string& tool, const std::string& args) {
  char self[4096];
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  std::string dir = len > 0 ? std::string(self, static_cast<size_t>(len)) : "./x";
  dir.resize(dir.rfind('/') + 1);
  Outcome out;
  FILE* pipe = popen((dir + tool + " " + args + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return out;
  char buf[4096];
  for (size_t n; (n = fread(buf, 1, sizeof(buf), pipe)) > 0;) out.output.append(buf, n);
  const int status = pclose(pipe);
  if (WIFEXITED(status)) out.exit_code = WEXITSTATUS(status);
  return out;
}

TEST(ToolFlagsTest, MalformedFlagsExitTwoNamingTheFlag) {
  const struct {
    const char* args;
    const char* flag;
  } cases[] = {
      {"--n=abc", "--n"},
      {"--n=-4", "--n"},
      {"--n=100000", "--n"},
      {"--batch=0", "--batch"},
      {"--regions=9", "--regions"},
      {"--workload=tpcx", "--workload"},
      {"--fault=crashh", "--fault"},
      {"--batchsize=5", "--batchsize"},
      {"--oracel", "--oracel"},
      {"--sim_jobs=2", "--sim_jobs"},
      {"--faulty=4 --n=4", "--faulty"},
      {"--duration_ms=1.2345", "--duration_ms"},
      {"--client-groups=100000", "--client-groups"},
      {"--scenario=fig8_scalability --client-groups=-1", "--client-groups"},
      {"--scenario=fig8_scalability --client-groups=100000", "--client-groups"},
      {"--scenario=fig8_scalability --n=4", "--n"},
      {"--scenario=fig8_scalability --paper_point", "--paper_point"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.args);
    const Outcome out = RunTool("hs1sim", c.args);
    EXPECT_EQ(out.exit_code, 2) << out.output;
    EXPECT_NE(out.output.find(std::string(c.flag) + ":"), std::string::npos)
        << out.output;
    EXPECT_EQ(out.output.find("RESULT"), std::string::npos) << "must not run";
  }
  const Outcome bench = RunTool("hs1bench", "--scenario=fig8_scalability --smoke --oracel");
  EXPECT_EQ(bench.exit_code, 2) << bench.output;
  EXPECT_NE(bench.output.find("--oracel:"), std::string::npos) << bench.output;
}

TEST(ToolFlagsTest, PointRunAndSharedScenarioPath) {
  const Outcome point = RunTool("hs1sim", "--n=4 --duration_ms=200 --warmup_ms=50");
  EXPECT_EQ(point.exit_code, 0) << point.output;
  EXPECT_NE(point.output.find("safety=1"), std::string::npos) << point.output;

  const std::string args = "--scenario=fig8_scalability --smoke --format=csv";
  const Outcome sim = RunTool("hs1sim", args);
  const Outcome bench = RunTool("hs1bench", args);
  EXPECT_EQ(sim.exit_code, 0) << sim.output;
  EXPECT_FALSE(sim.output.empty());
  EXPECT_EQ(sim.output, bench.output);
}

}  // namespace
}  // namespace hotstuff1
