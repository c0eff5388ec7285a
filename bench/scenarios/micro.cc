// Micro-benchmarks for the substrates: hashing, signing, certificate
// verification, block construction, KV execution/undo, ledger speculation,
// the event queue, and workload generation. A custom (non-sweep) scenario:
// each op is timed wall-clock with a self-calibrating iteration loop, so the
// harness needs no external benchmark dependency.
//
// Results flow through the standard sweep emitters (one synthetic point per
// operation) so micro shares the flat CSV/JSON point schema with every other
// scenario. The measured time rides in the wall_ms field behind a
// deterministic=false metric — exactly the wall-clock contract par_speedup
// uses — so tables show ns/op while the machine-readable bytes stay
// identical across runs and the CI CSV-diff gates can cover the scenario.

#include <chrono>
#include <cstdio>
#include <iostream>

#include "consensus/certificate.h"
#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "ledger/ledger.h"
#include "runtime/report.h"
#include "runtime/scenario.h"
#include "runtime/sweep_runner.h"
#include "sim/simulator.h"
#include "workload/tpcc.h"
#include "workload/ycsb.h"

namespace hotstuff1 {
namespace {

// Times `op` (which runs `batch` inner iterations per call) until the time
// budget is spent; returns mean nanoseconds per inner iteration.
template <typename Op>
double TimeNsPerOp(double budget_ms, uint64_t batch, Op&& op) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::microseconds(
                                    static_cast<int64_t>(budget_ms * 1000));
  uint64_t iters = 0;
  do {
    op();
    iters += batch;
  } while (Clock::now() < deadline);
  const double ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count();
  return ns / static_cast<double>(iters);
}

// Like TimeNsPerOp, but `op` returns the nanoseconds of its own timed
// section, excluding per-iteration setup (the PauseTiming idiom).
template <typename Op>
double TimeNsTimedSection(double budget_ms, Op&& op) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(budget_ms * 1000));
  double total_ns = 0;
  uint64_t iters = 0;
  do {
    total_ns += op();
    ++iters;
  } while (Clock::now() < deadline);
  return total_ns / static_cast<double>(iters);
}

std::string FormatNs(double ns) {
  char buf[32];
  if (ns >= 1e6) {
    std::snprintf(buf, sizeof(buf), "%.2fms", ns / 1e6);
  } else if (ns >= 1e3) {
    std::snprintf(buf, sizeof(buf), "%.2fus", ns / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fns", ns);
  }
  return buf;
}

// Keeps results observable so the compiler cannot elide the measured op.
volatile uint64_t g_sink;
template <typename T>
void Sink(const T& v) {
  g_sink = g_sink + *reinterpret_cast<const unsigned char*>(&v);
}

// Spec used purely for emission: one synthetic sweep point per operation,
// with the measured ns/op carried in ExperimentResult::wall_ms under a
// nondeterministic metric (excluded from CSV/JSON by contract).
ScenarioSpec MicroEmitSpec() {
  ScenarioSpec spec;
  spec.name = "micro";
  spec.title = "Micro-benchmarks: substrate operation costs";
  spec.row_name = "operation";
  spec.metrics = {{"ns_per_op", [](const ExperimentResult& r) { return r.wall_ms; },
                   FormatNs, /*deterministic=*/false}};
  return spec;
}

int RunMicro(const ScenarioRunOptions& options) {
  const double budget_ms = options.smoke ? 5.0 : 100.0;
  SweepOutcome outcome;
  static const ScenarioSpec emit_spec = MicroEmitSpec();
  outcome.spec = &emit_spec;
  outcome.synthetic = true;  // no experiments ran: no fabricated diagnostics
  auto add = [&](const std::string& name, double ns) {
    SweepPoint p;
    p.index = outcome.points.size();
    p.row_label = name;
    outcome.points.push_back(std::move(p));
    ExperimentResult r;
    r.wall_ms = ns;
    outcome.results.push_back(std::move(r));
  };

  for (size_t size : {size_t{64}, size_t{1024}, size_t{65536}}) {
    const std::string data(size, 'x');
    add("sha256/" + std::to_string(size),
        TimeNsPerOp(budget_ms, 1, [&] { Sink(Sha256::Digest(data)); }));
  }

  {
    KeyRegistry registry(4, 1);
    Signer signer(&registry, 0);
    const Hash256 digest = Sha256::Digest("payload");
    add("sign+verify", TimeNsPerOp(budget_ms, 1, [&] {
          const Signature sig = signer.Sign(SignDomain::kProposeVote, digest);
          Sink(registry.Verify(sig, SignDomain::kProposeVote, digest));
        }));
  }

  for (uint32_t n : {4u, 32u, 64u}) {
    const uint32_t quorum = n - (n - 1) / 3;
    KeyRegistry registry(n, 1);
    const Hash256 h = Sha256::Digest("block");
    VoteAccumulator acc(CertKind::kPrepare, 5, BlockId{5, 1}, h, quorum);
    for (uint32_t r = 0; r < quorum; ++r) {
      acc.Add(Signer(&registry, r)
                  .Sign(SignDomain::kProposeVote,
                        VoteDigest(CertKind::kPrepare, 5, BlockId{5, 1}, h)));
    }
    const Certificate cert = acc.Build();
    add("certificate_verify/n=" + std::to_string(n),
        TimeNsPerOp(budget_ms, 1,
                    [&] { Sink(cert.Verify(registry, quorum).ok()); }));
  }

  for (int txn_count : {100, 1000}) {
    YcsbWorkload workload;
    Rng rng(3);
    std::vector<Transaction> txns;
    for (int i = 0; i < txn_count; ++i) {
      Transaction t = workload.Generate(&rng);
      t.id = static_cast<uint64_t>(i);
      txns.push_back(std::move(t));
    }
    add("block_construction/" + std::to_string(txn_count),
        TimeNsPerOp(budget_ms, 1, [&] {
          auto block = std::make_shared<Block>(BlockId{1, 1},
                                               Block::Genesis()->hash(), 1, 0, txns);
          Sink(block->hash());
        }));
  }

  {
    KvState kv;
    YcsbWorkload workload;
    Rng rng(4);
    const Transaction txn = workload.Generate(&rng);
    add("kv_apply_undo", TimeNsPerOp(budget_ms, 1, [&] {
          KvState::UndoLog undo;
          Sink(kv.ApplyTxn(txn, &undo));
          kv.Undo(undo);
        }));
  }

  {
    YcsbWorkload workload;
    Rng rng(5);
    std::vector<Transaction> txns;
    for (int i = 0; i < 100; ++i) {
      Transaction t = workload.Generate(&rng);
      t.id = static_cast<uint64_t>(i);
      txns.push_back(std::move(t));
    }
    // Store/ledger/block construction stays outside the timed section so the
    // row measures only Speculate + CommitChain.
    add("ledger_speculate_commit/100txn", TimeNsTimedSection(budget_ms, [&] {
          BlockStore store;
          ExecTree tree;
          Ledger ledger(&store, &tree);
          auto block = std::make_shared<Block>(BlockId{1, 1}, store.genesis()->hash(),
                                               1, 0, txns);
          store.Put(block);
          const auto start = std::chrono::steady_clock::now();
          ledger.Speculate(block);
          Sink(ledger.CommitChain(block));
          return static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count());
        }));
  }

  add("event_queue/1k_events", TimeNsPerOp(budget_ms, 1000, [] {
        sim::Simulator sim;
        uint64_t count = 0;
        for (int i = 0; i < 1000; ++i) {
          sim.At((i * 37) % 500, [&count]() { ++count; });
        }
        sim.Run();
        Sink(count);
      }));

  {
    YcsbWorkload workload;
    Rng rng(6);
    add("ycsb_generate",
        TimeNsPerOp(budget_ms, 1, [&] { Sink(workload.Generate(&rng)); }));
  }
  {
    TpccConfig cfg;
    cfg.new_order_fraction = 1.0;
    TpccWorkload workload(cfg);
    Rng rng(7);
    add("tpcc_new_order",
        TimeNsPerOp(budget_ms, 1, [&] { Sink(workload.Generate(&rng)); }));
  }

  std::ostream& os = options.out ? *options.out : std::cout;
  switch (options.format) {
    case ReportFormat::kTable: EmitTables(outcome, os); break;
    case ReportFormat::kCsv: EmitCsv(outcome, os); break;
    case ReportFormat::kJson: EmitJson(outcome, os); break;
  }
  return 0;
}

ScenarioSpec Micro() {
  ScenarioSpec spec;
  spec.name = "micro";
  spec.title = "Micro-benchmarks";
  spec.description =
      "wall-clock cost of the substrate operations (custom run, flat point schema)";
  spec.custom_run = RunMicro;
  return spec;
}

HS1_REGISTER_SCENARIO(Micro);

}  // namespace
}  // namespace hotstuff1
