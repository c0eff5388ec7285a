// hs1bench: the registry-driven benchmark harness. Every paper figure and
// ablation is a registered scenario; this binary lists and runs them.
//
// Examples:
//   hs1bench --list
//   hs1bench --scenario=fig8_scalability
//   hs1bench --scenario=fig9_delay --jobs=8 --format=csv
//   hs1bench --scenario=fig8_scalability --smoke --jobs=2   (CI-sized)
//   hs1bench --all --smoke

#include <cstdio>
#include <string>

#include "tools/cli.h"

int main(int argc, char** argv) {
  using namespace hotstuff1::tools;
  Flags flags(argc, argv);
  if (flags.Has("help")) {
    std::printf("hs1bench - registry-driven benchmark harness\n\n%s"
                "  --help                     this text\n\n"
                "Forced knobs: each applies to every point of a scenario that "
                "does not\nsweep it (respect-the-axis); absent, each point "
                "keeps its own value.\n%s\n"
                "Scenario durations honor the H1_DURATION_MS environment "
                "override.\n",
                kScenarioRunUsage, KnobUsage(/*forcible_only=*/true, nullptr).c_str());
    return 0;
  }
  if (flags.Has("list")) return ListScenarios();
  return RunScenarioCommand(flags);
}
