#include "runtime/config_knob.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/parse.h"
#include "common/replica_set.h"

namespace hotstuff1 {
namespace {

using Cfg = ExperimentConfig;

// Accessor for the field a row binds, callable on a const or mutable config.
#define HS1_FIELD(member) [](auto& c) -> auto& { return c.member; }

template <typename Get>
using FieldOf = std::remove_cvref_t<decltype(std::declval<Get>()(std::declval<Cfg&>()))>;

constexpr uint64_t kU32 = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kU63 = std::numeric_limits<int64_t>::max();
constexpr double kMaxMicros = 1e15;  // ~31 years of virtual time

bool Fail(std::string* error, std::string msg) {
  if (error != nullptr) *error = std::move(msg);
  return false;
}

bool ParseInRange(const std::string& s, uint64_t lo, uint64_t hi, int64_t* v,
                  std::string* error) {
  if (!ParseNumber(s, v)) return Fail(error, "'" + s + "' is not a non-negative integer");
  const uint64_t u = static_cast<uint64_t>(*v);
  if (u >= lo && u <= hi) return true;
  return Fail(error, "'" + s + "' " +
                         (hi >= kU32 ? "must be >= " + std::to_string(lo)
                                     : "must be in [" + std::to_string(lo) + ", " +
                                           std::to_string(hi) + "]"));
}

// A finite real, > 0 or (allow_zero) >= 0.
bool ParseReal(const std::string& s, bool allow_zero, double* v, std::string* error) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *v);
  if (ec == std::errc() && ptr == end && std::isfinite(*v) && (*v > 0 || (allow_zero && *v == 0))) {
    return true;
  }
  return Fail(error, "'" + s + "' is not a " + (allow_zero ? "non-negative" : "positive") +
                         " number");
}

// Shortest text that parses back to `v`; integral values print without an
// exponent.
std::string FormatReal(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) return std::to_string(static_cast<int64_t>(v));
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

// The codecs below return a row's value half (placeholder, parse, format);
// Knob() adds the flag, help and bits.

// Unsigned integer field in [lo, hi].
template <typename Get>
ConfigKnob Count(Get get, uint64_t lo, uint64_t hi) {
  return {.arg = "<N>",
          .parse = [=](const std::string& s, Cfg* c, std::string* error) {
            int64_t v = 0;
            if (!ParseInRange(s, lo, hi, &v, error)) return false;
            get(*c) = static_cast<FieldOf<Get>>(v);
            return true;
          },
          .format = [=](const Cfg& c) { return std::to_string(get(c)); }};
}

// Virtual time typed in milliseconds, to microsecond resolution.
template <typename Get>
ConfigKnob Ms(Get get) {
  return {.arg = "<ms>",
          .parse = [=](const std::string& s, Cfg* c, std::string* error) {
            double ms = 0;
            if (!ParseReal(s, /*allow_zero=*/true, &ms, error)) return false;
            const double us = ms * kMillisecond;
            if (us > kMaxMicros || std::fabs(us - std::round(us)) > 1e-6) {
              return Fail(error, "'" + s + "' is not a whole number of microseconds");
            }
            get(*c) = std::llround(us);
            return true;
          },
          .format = [=](const Cfg& c) { return FormatReal(ToMillis(get(c))); }};
}

// Positive finite real.
template <typename Get>
ConfigKnob Positive(Get get) {
  return {.arg = "<x>",
          .parse = [=](const std::string& s, Cfg* c, std::string* error) {
            double v = 0;
            if (!ParseReal(s, /*allow_zero=*/false, &v, error)) return false;
            get(*c) = v;
            return true;
          },
          .format = [=](const Cfg& c) { return FormatReal(get(c)); }};
}

// Switch: a bare `--flag` (or "=true"/"=1") sets the field to `on`.
template <typename Get>
ConfigKnob Switch(Get get, bool on) {
  return {.parse = [=](const std::string& s, Cfg* c, std::string* error) {
            bool v = false;
            if (!ParseBool(s, &v)) return Fail(error, "'" + s + "' is not true|false");
            get(*c) = v == on;
            return true;
          },
          .format = [=](const Cfg& c) { return std::string(get(c) == on ? "true" : ""); }};
}

// Enum field spelled by name; names[i] spells the enumerator with value i.
template <typename Get>
ConfigKnob Choice(Get get, std::vector<std::string> names) {
  std::string arg;
  for (const std::string& name : names) arg += (arg.empty() ? "" : "|") + name;
  return {.arg = arg,
          .parse = [=](const std::string& s, Cfg* c, std::string* error) {
            const auto it = std::find(names.begin(), names.end(), s);
            if (it == names.end()) return Fail(error, "'" + s + "' is not one of " + arg);
            get(*c) = static_cast<FieldOf<Get>>(it - names.begin());
            return true;
          },
          .format = [=](const Cfg& c) { return names[static_cast<size_t>(get(c))]; }};
}

// Field with its own parser (with or without an error out-parameter) and
// formatter: schedule grammars, the lookahead policy, enums whose spellings
// live with their type.
template <typename Get, typename Parse, typename Format>
ConfigKnob Text(Get get, std::string arg, Parse parse, Format format) {
  return {.arg = arg,
          .parse = [=](const std::string& s, Cfg* c, std::string* error) {
            FieldOf<Get> v{};
            std::string why;
            bool ok = false;
            if constexpr (std::is_invocable_v<Parse, const std::string&, decltype(&v),
                                              std::string*>) {
              ok = parse(s, &v, &why);
            } else {
              ok = parse(s, &v);
            }
            if (!ok) return Fail(error, why.empty() ? "'" + s + "' is not " + arg : why);
            get(*c) = std::move(v);
            return true;
          },
          .format = [=](const Cfg& c) { return std::string(format(get(c))); }};
}

// --regions writes the placement, which depends on n: rows apply in table
// order, and n comes first.
ConfigKnob Regions() {
  return {.arg = "<1..5>",
          .parse = [](const std::string& s, Cfg* c, std::string* error) {
            int64_t r = 0;
            if (!ParseInRange(s, 1, 5, &r, error)) return false;
            c->topology = r > 1 ? sim::Topology::Geo(c->n, static_cast<uint32_t>(r))
                                : sim::Topology{};
            return true;
          },
          .format = [](const Cfg& c) { return std::to_string(RegionCount(c.topology)); }};
}

// --faulty: a coalition smaller than the committee (n parses first).
ConfigKnob Coalition() {
  ConfigKnob row = Count(HS1_FIELD(num_faulty), 0, kU32);
  row.parse = [](const std::string& s, Cfg* c, std::string* error) {
    int64_t v = 0;
    if (!ParseInRange(s, 0, c->n - 1, &v, error)) return false;
    c->num_faulty = static_cast<uint32_t>(v);
    return true;
  };
  return row;
}

enum Bits { kRepro = 1, kForcible = 2 };

ConfigKnob Knob(std::string flag, std::string arg, std::string help, ConfigKnob row,
                int bits = kRepro) {
  row.flag = std::move(flag);
  if (!arg.empty()) row.arg = std::move(arg);
  row.help = std::move(help);
  row.repro = (bits & kRepro) != 0;
  row.forcible = (bits & kForcible) != 0;
  return row;
}

std::vector<ConfigKnob> BuildKnobs() {
  return {
      Knob("protocol", "", "",
           Choice(HS1_FIELD(protocol),
                  {"hotstuff", "hotstuff2", "basic", "hotstuff1", "slotted"})),
      Knob("n", "<replicas>", "", Count(HS1_FIELD(n), 1, ReplicaSet::kCapacity)),
      Knob("batch", "<txns per block>", "", Count(HS1_FIELD(batch_size), 1, kU32)),
      Knob("duration_ms", "<virtual ms>", "", Ms(HS1_FIELD(duration))),
      Knob("warmup_ms", "<virtual ms>", "", Ms(HS1_FIELD(warmup))),
      Knob("timer_ms", "<view timer>", "1200 when --regions>1", Ms(HS1_FIELD(view_timer))),
      Knob("delta_ms", "<assumed bound>", "160 when --regions>1", Ms(HS1_FIELD(delta))),
      Knob("workload", "", "", Choice(HS1_FIELD(workload), {"ycsb", "tpcc"})),
      Knob("regions", "", "geo deployment (1 = LAN)", Regions()),
      Knob("fault", "", "",
           Choice(HS1_FIELD(fault), {"none", "crash", "slow", "tailfork", "rollback"})),
      Knob("faulty", "<count>", "", Coalition()),
      Knob("victims", "<rollback victims>", "f of --n when absent",
           Count(HS1_FIELD(rollback_victims), 0, kU32)),
      Knob("strategy", "",
           "composable per-epoch adversary strategy for\n"
           "the --faulty coalition; entries\n"
           "\"<from>[-<to>]:action[,action]\" joined by ';'\n"
           "with actions equivocate|withhold|delay=<us>|\n"
           "target-leader, plus optional \"epoch=<us>\" and\n"
           "\"gst=<us>\" segments (see runtime/adversary.h).\n"
           "Example: \"0-3:withhold;gst=120000\". Also\n"
           "partition=<ids>|<ids>, outage=<regions>,\n"
           "jitter=<pct> environmental actions.",
           Text(HS1_FIELD(strategy), "<schedule>", ParseStrategySchedule,
                FormatStrategySchedule),
           kRepro | kForcible),
      Knob("reconfig", "",
           "epoch-based committee reconfiguration:\n"
           "\"<epoch>:<ids>\" steps joined by ';', ids as\n"
           "\"<id>\" or \"<lo>-<hi>\" joined by '+' (see\n"
           "consensus/committee.h). Example:\n"
           "\"0:0-15;4:0-11\" shrinks to 12 members at\n"
           "epoch 4. Member ids must be < n.",
           Text(HS1_FIELD(reconfig), "<schedule>", ParseCommitteeSchedule,
                FormatCommitteeSchedule),
           kRepro | kForcible),
      Knob("liveness_k", "<views>",
           "liveness oracle: flag >k correct views past\n"
           "GST without a correct commit (0 = auto)",
           Count(HS1_FIELD(liveness_k), 0, kU63)),
      Knob("liveness_grace_ms", "<ms>",
           "liveness oracle: flag a run ending this long\n"
           "after GST with no correct commit (0 = auto)",
           Ms(HS1_FIELD(liveness_grace))),
      Knob("inject_delay_ms", "<ms>",
           "Fig. 9 style delay injection on traffic to\n"
           "or from the last --impaired replicas",
           Ms(HS1_FIELD(inject_delay))),
      Knob("impaired", "<k>", "", Count(HS1_FIELD(num_impaired), 0, kU32)),
      Knob("clients", "<count>", "0 = 8*batch closed loop, 1M open loop",
           Count(HS1_FIELD(num_clients), 0, kU32)),
      Knob("client-groups", "<G>", "client-pool shards (byte-identical results at\nany value)",
           Count(HS1_FIELD(client_groups), 1, kMaxClientGroups), kRepro | kForcible),
      Knob("arrival", "", "traffic model (closed = one outstanding txn\nper client)",
           Text(HS1_FIELD(arrival.kind), "closed|poisson|bursty|diurnal|flash",
                ParseArrivalKind, ArrivalKindName),
           kRepro | kForcible),
      Knob("offered-load", "<txn/s>", "open-loop aggregate arrival rate",
           Positive(HS1_FIELD(arrival.offered_load_tps)), kRepro | kForcible),
      Knob("cert-scheme", "",
           "authenticator wire encoding\n"
           "(vector = §7's n−f signature list;\n"
           "pure byte-size axis, results stay safe/live)",
           Text(HS1_FIELD(cert_scheme), "vector|aggregate|threshold", ParseCertScheme,
                CertSchemeName),
           kRepro | kForcible),
      Knob("max_slots", "<k>", "slotted: cap slots/view (0 = adaptive)",
           Count(HS1_FIELD(max_slots), 0, kU32)),
      Knob("no_speculation", "", "disable speculative responses",
           Switch(HS1_FIELD(speculation_enabled), false)),
      Knob("no_trusted_leader", "", "disable the §6.3 fast path",
           Switch(HS1_FIELD(trusted_leader_enabled), false)),
      Knob("seed", "<u64>", "", Count(HS1_FIELD(seed), 0, kU63)),
      Knob("sim-jobs", "<N>", "parallel event-loop threads (results\nbyte-identical at any value)",
           Count(HS1_FIELD(sim_jobs), 1, kU32), kForcible),
      Knob("lookahead", "",
           "lookahead window for the parallel event loop\n(byte-identical at any value)",
           Text(HS1_FIELD(lookahead), "auto|off|<us>", ParseLookahead, FormatLookahead),
           kForcible),
      Knob("event_cap", "<N>",
           "stop a runaway run after N events (0 =\n"
           "unlimited; truncation is reported, never silent)",
           Count(HS1_FIELD(event_cap), 0, kU63), 0),
      Knob("oracle", "",
           "arm the online safety + liveness oracles\n"
           "(violations fail the run with a config+seed\n"
           "diagnostic)",
           Switch(HS1_FIELD(oracle_enabled), true), kRepro | kForcible),
      Knob("bandwidth_bytes_per_us", "<B>", "per-node egress bandwidth",
           Positive(HS1_FIELD(bandwidth_bytes_per_us))),
  };
}

#undef HS1_FIELD

// Single-quotes a value the shell would split or expand (';', '|', ' ').
std::string ShellWord(const std::string& value) {
  constexpr std::string_view kPlain =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.,:+=/@%";
  return value.find_first_not_of(kPlain) == std::string::npos ? value : "'" + value + "'";
}

}  // namespace

const std::vector<ConfigKnob>& ConfigKnobs() {
  static const std::vector<ConfigKnob> knobs = BuildKnobs();
  return knobs;
}

const ConfigKnob* FindKnob(std::string_view flag) {
  for (const ConfigKnob& knob : ConfigKnobs()) {
    if (knob.flag == flag) return &knob;
  }
  return nullptr;
}

uint32_t RegionCount(const sim::Topology& topology) {
  return topology.n == 0 ? 1 : static_cast<uint32_t>(topology.region_latency.size());
}

std::string DescribeConfig(const ExperimentConfig& config) {
  std::string out;
  for (const ConfigKnob& knob : ConfigKnobs()) {
    const std::string value = knob.repro ? knob.format(config) : "";
    if (value.empty()) continue;
    out += (out.empty() ? "--" : " --") + knob.flag + "=" + ShellWord(value);
  }
  return out;
}

}  // namespace hotstuff1
