// The experiment knob table: one descriptor per command-line-settable
// ExperimentConfig field. It is the single declaration of each knob —
// hs1sim's point-mode parser and --help, hs1bench's forced flags, the sweep
// runner's forcing and DescribeConfig are all generated from it, so adding
// a knob means adding one row (see docs/ARCHITECTURE.md, "Experiment
// knobs").

#ifndef HOTSTUFF1_RUNTIME_CONFIG_KNOB_H_
#define HOTSTUFF1_RUNTIME_CONFIG_KNOB_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/experiment.h"

namespace hotstuff1 {

/// \brief One experiment knob: a `--flag=value` bound to a config field.
struct ConfigKnob {
  std::string flag = {};
  std::string arg = {};   // value placeholder in --help; empty for a switch
  std::string help = {};  // --help text; '\n' breaks lines
  // Part of a run's repro, so DescribeConfig emits it. False only for the
  // executor shape (sim-jobs, lookahead, event_cap): results are
  // byte-identical across it by contract, and oracle diagnostics must not
  // differ between executor configurations.
  bool repro = true;
  // May be forced onto every point of a scenario sweep (respect-the-axis:
  // not onto a scenario whose points differ on it, see `same`).
  bool forcible = false;
  // Strict: range-checks `text` and writes the field, or leaves `cfg`
  // untouched and explains why in `*error`.
  std::function<bool(const std::string& text, ExperimentConfig* cfg,
                     std::string* error)>
      parse;
  // The exact inverse of parse. Empty means the flag is left out: the
  // field holds its nothing-set value (no strategy, a switch that is off).
  std::function<std::string(const ExperimentConfig& cfg)> format;

  // Whether two configs agree on this knob: equal formatted text, which is
  // equal values because format is injective (--regions compares region
  // counts). A scenario sweeps the knob when one of its points disagrees
  // with its base config.
  bool same(const ExperimentConfig& a, const ExperimentConfig& b) const {
    return format(a) == format(b);
  }
};

/// Every knob, in --help and DescribeConfig order.
const std::vector<ConfigKnob>& ConfigKnobs();

/// The row for `flag`, or nullptr.
const ConfigKnob* FindKnob(std::string_view flag);

/// A knob value forced onto every point of a sweep, as typed after
/// `--<flag>=` on the command line.
struct KnobSetting {
  std::string flag;
  std::string value;
};

/// Regions a placement spans; 1 for the default (empty) topology and LAN.
uint32_t RegionCount(const sim::Topology& topology);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_RUNTIME_CONFIG_KNOB_H_
