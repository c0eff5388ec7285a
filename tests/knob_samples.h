// One valid, non-default command-line value per knob-table row, shared by
// the table-driven knob tests. A row without a sample fails those tests,
// so a new knob cannot skip them.

#ifndef HOTSTUFF1_TESTS_KNOB_SAMPLES_H_
#define HOTSTUFF1_TESTS_KNOB_SAMPLES_H_

#include <map>
#include <string>

namespace hotstuff1 {

inline const std::map<std::string, std::string>& KnobSamples() {
  static const std::map<std::string, std::string> samples = {
      {"protocol", "slotted"},
      {"n", "7"},
      {"batch", "250"},
      {"duration_ms", "1234.5"},
      {"warmup_ms", "0.125"},
      {"timer_ms", "77"},
      {"delta_ms", "3.003"},
      {"workload", "tpcc"},
      {"regions", "3"},
      {"fault", "rollback"},
      {"faulty", "2"},
      {"victims", "1"},
      {"strategy", "0-3:withhold;4-:delay=500,target-leader;gst=120000"},
      {"reconfig", "0:0-15;4:0-11"},
      {"liveness_k", "9"},
      {"liveness_grace_ms", "45"},
      {"inject_delay_ms", "20"},
      {"impaired", "3"},
      {"clients", "640"},
      {"client-groups", "16"},
      {"arrival", "poisson"},
      {"offered-load", "12345.5"},
      {"cert-scheme", "aggregate"},
      {"max_slots", "4"},
      {"no_speculation", "true"},
      {"no_trusted_leader", "true"},
      {"seed", "42"},
      {"sim-jobs", "4"},
      {"lookahead", "400"},
      {"event_cap", "1000000"},
      {"oracle", "true"},
      {"bandwidth_bytes_per_us", "1250.75"},
  };
  return samples;
}

}  // namespace hotstuff1

#endif  // HOTSTUFF1_TESTS_KNOB_SAMPLES_H_
