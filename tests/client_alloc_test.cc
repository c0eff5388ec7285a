// Pins the open-loop client pool's "lazy client records" property: the heap
// footprint is a function of *traffic*, never of *population*. A pool serving
// a million logical clients must allocate exactly as much as a pool serving
// ten thousand under the same seed, offered load, and measurement window —
// client identity is a drawn label, not a stored record. Enforced the same
// way event_alloc_test pins the event loop: counting operator new/delete for
// the whole binary, asserting exact equality of the allocation deltas.
//
// If this test starts failing, something began materializing per-client
// state (a map keyed by client id, a per-client vector sized by population,
// ...) — the million-client scenarios in fig_saturation depend on this.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "client/client_pool.h"
#include "workload/ycsb.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

uint64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace

// Counting overrides for the whole test binary. Every standard flavor is
// covered so no allocation can slip past the counter.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (n + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t align) {
  return ::operator new(n, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace hotstuff1 {
namespace {

// Minimal leader: every millisecond, draw a batch, wrap it in a block, and
// answer with a committed quorum. Trivially-copyable 24-byte capture stays
// in InlineFn's inline buffer.
struct Pump {
  sim::Simulator* sim;
  ClientPool* pool;
  uint64_t* view;

  void operator()() const {
    auto txns = pool->DrawBatch(0, 200, sim->Now());
    if (!txns.empty()) {
      auto block = std::make_shared<Block>(BlockId{(*view)++, 1},
                                           Block::Genesis()->hash(), 1, 0,
                                           std::move(txns));
      const auto results =
          std::make_shared<const std::vector<uint64_t>>(block->txns().size(), 7);
      pool->OnBlockResponse(0, block, results, /*speculative=*/false, sim->Now());
      pool->OnBlockResponse(1, block, results, /*speculative=*/false, sim->Now());
    }
    sim->After(Millis(1), Pump{sim, pool, view});
  }
};

struct RunStats {
  uint64_t construction_allocs = 0;
  uint64_t steady_state_allocs = 0;
  uint64_t accepted = 0;
};

// Runs an open-loop pool at 100k tps for a fixed window and reports the
// allocation deltas. Everything except `population` is pinned, and the
// client-label draw consumes one RNG step regardless of the bound, so two
// runs differing only in population execute identical event streams.
RunStats RunOpenLoopWindow(uint32_t population) {
  RunStats stats;
  sim::Simulator sim;
  YcsbWorkload workload;
  ClientPoolConfig cfg;
  cfg.num_clients = population;
  cfg.groups = 4;
  cfg.quorum_commit = 2;
  cfg.quorum_speculative = 0;
  cfg.arrival.kind = ArrivalKind::kPoisson;
  cfg.arrival.offered_load_tps = 100'000;
  cfg.resubmit_timeout = Millis(250);
  cfg.seed = 1234;

  const uint64_t before_ctor = AllocCount();
  ClientPool pool(&sim, &workload, cfg, std::vector<SimTime>(4, Millis(1)));
  stats.construction_allocs = AllocCount() - before_ctor;

  pool.Start();
  uint64_t view = 1;
  sim.At(Millis(2), Pump{&sim, &pool, &view});
  // Warmup: grow the event arena, the submission queue's chunk ring, each
  // group's slot storage and tally capacities, the latency sample vectors.
  sim.RunUntil(Millis(60));
  const uint64_t before = AllocCount();
  sim.RunUntil(Millis(260));
  stats.steady_state_allocs = AllocCount() - before;
  stats.accepted = pool.accepted();
  return stats;
}

TEST(ClientAllocTest, MillionClientPoolAllocatesExactlyLikeTenThousand) {
  const RunStats small = RunOpenLoopWindow(10'000);
  const RunStats million = RunOpenLoopWindow(1'000'000);

  // Both runs processed identical traffic (same seed, same arrival stream,
  // same transaction content — only the client labels differ)...
  EXPECT_EQ(small.accepted, million.accepted);
  EXPECT_GT(small.accepted, 15'000u) << "window too small to mean anything";
  // ...and the 100x population paid for it with *exactly* the same heap
  // traffic, at construction and in steady state.
  EXPECT_EQ(small.construction_allocs, million.construction_allocs);
  EXPECT_EQ(small.steady_state_allocs, million.steady_state_allocs);
}

}  // namespace
}  // namespace hotstuff1
