// The speculation decision engine: enforces the Prefix Speculation rule
// (Def. 3.1) and the No-Gap rule (Def. 3.2), performs conflict rollback
// (Def. 4.7), and executes carry-block units (§6.1) atomically with their
// first-slot block.
//
// The rules are test hooks: disabling them (policy flags) reproduces the
// Appendix A client-safety violations, which the property tests assert.

#ifndef HOTSTUFF1_CORE_SPECULATION_H_
#define HOTSTUFF1_CORE_SPECULATION_H_

#include <vector>

#include "ledger/block_store.h"
#include "ledger/ledger.h"

namespace hotstuff1 {

struct SpeculationPolicy {
  bool enabled = true;
  bool prefix_rule = true;  // Def. 3.1
  bool no_gap_rule = true;  // Def. 3.2
};

struct SpeculatedBlock {
  BlockPtr block;
  TxnResults results;
};

struct SpeculationOutcome {
  bool speculated = false;
  size_t blocks_rolled_back = 0;
  /// Blocks executed, in chain order (a carried block precedes its
  /// first-slot block).
  std::vector<SpeculatedBlock> executed;
};

/// Attempts to speculatively execute `certified` (the block whose
/// certificate was just learned). `no_gap_satisfied` is the caller-computed,
/// protocol-specific adjacency condition (basic: w == v; streamlined:
/// w == v-1; slotted: Fig. 7 line 17).
SpeculationOutcome TrySpeculate(Ledger* ledger, const BlockStore& store,
                                const BlockPtr& certified, bool no_gap_satisfied,
                                const SpeculationPolicy& policy);

}  // namespace hotstuff1

#endif  // HOTSTUFF1_CORE_SPECULATION_H_
