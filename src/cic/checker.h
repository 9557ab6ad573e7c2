// Code Integrity Checker (CIC) — the monitoring hardware of Figure 2.
//
// Bundles the datapath-visible monitoring resources: the HASHFU the IF-stage
// microoperations step the running hash through, the IHTbb CAM the ID-stage
// lookup microoperation probes, and the exception signals. The CPU's
// Datapath implementation forwards the three monitoring ports here.
//
// The CIC also latches the key of the most recent lookup: when the lookup
// raises a miss exception, the OS handler needs (start, end, dynamic hash)
// to search the FHT — in hardware these values are exactly what was driven
// onto the CAM's match lines, so latching them costs three registers.
//
// The threaded engine's shortcuts do not change what the CIC observes.
// Superblock chaining only short-circuits the software dispatch loop between
// translated blocks: the Figure 4 monitoring head still runs at every
// flow-control instruction (IHT lookup on <STA, PPC, RHASH>, then STA/RHASH
// reset), whether control arrived via a chain link or via the dispatch loop.
// Region-granular RHASH folding only defers the Figure 3(b) fold: a block
// entered at a region start (STA == 0, RHASH at its reset value) latches STA
// and fetches every word through the real fetch path, and once each word has
// matched its translation tag, RHASH is set from the fold of those tags
// precomputed at translation (uop::TransEntry::rhash) — the value the
// per-fetch steps would have produced — before the flow-control instruction
// reads it. A word that differs from its tag is folded through this HASHFU.
// Per-region hash coverage, IHT contention and exception timing are
// therefore exactly the switch interpreter's, which the engine byte-identity
// tests and the switch vs threaded CI diffs enforce.
#pragma once

#include <cstdint>
#include <memory>

#include "cic/iht.h"
#include "hash/hash_unit.h"
#include "support/bitops.h"
#include "uop/interp.h"

namespace cicmon::cic {

struct CicConfig {
  unsigned iht_entries = 8;
  ReplacePolicy replace_policy = ReplacePolicy::kLru;
  hash::HashKind hash_kind = hash::HashKind::kXor;
  std::uint32_t hash_key = 0;   // per-process random value (kRotXorKeyed)
  std::uint64_t rng_seed = 1;   // for ReplacePolicy::kRandom
};

// Key of an IHT lookup, latched for the exception handler.
struct LookupKey {
  std::uint32_t start = 0;
  std::uint32_t end = 0;
  std::uint32_t hash = 0;

  bool operator==(const LookupKey&) const = default;
};

// Mutable checker state for simulator snapshots: the IHT contents plus the
// latched lookup key. The HASHFU is stateless (its key is configuration).
struct CheckerState {
  IhtState iht;
  LookupKey last_lookup;

  bool operator==(const CheckerState&) const = default;
};

class CodeIntegrityChecker {
 public:
  explicit CodeIntegrityChecker(const CicConfig& config);

  // --- Monitoring ports (wired into uop::Datapath) ---
  //
  // The monitored fetch path calls hash_step once per dynamic instruction,
  // making the HASHFU's virtual `step` the last indirect call on that hot
  // path. The single-cycle units the paper's CIC8/CIC16 configurations ship
  // with (XOR, and the ADD/ROTXOR variants) are dispatched inline on the
  // kind latched at construction — their one-liner bodies duplicate the
  // `final` unit classes in hash_unit.cc bit for bit — while every other
  // kind, and all cold-path uses (FHT generation, the area model), still go
  // through the virtual unit, which remains the extension point.
  std::uint32_t hash_step(std::uint32_t old_hash, std::uint32_t instr_word) const {
    switch (kind_) {
      case hash::HashKind::kXor: return old_hash ^ instr_word;
      case hash::HashKind::kAdd: return old_hash + instr_word;
      case hash::HashKind::kRotXor:
      case hash::HashKind::kRotXorKeyed:
        return support::rotl32(old_hash, 1) ^ instr_word;
      default: return hashfu_->step(old_hash, instr_word);
    }
  }
  uop::IhtLookupResult lookup(std::uint32_t start, std::uint32_t end, std::uint32_t hash) {
    last_lookup_ = LookupKey{start, end, hash};
    return iht_.lookup(start, end, hash);
  }

  // --- OS-side access ---
  Iht& iht() { return iht_; }
  const Iht& iht() const { return iht_; }
  const LookupKey& last_lookup() const { return last_lookup_; }
  const hash::HashFunctionUnit& hash_unit() const { return *hashfu_; }
  const CicConfig& config() const { return config_; }

  // Hardware reset value of RHASH at the start of a basic block (the unit's
  // init(), latched at construction: read at every block end).
  std::uint32_t rhash_init() const { return rhash_init_; }

  CheckerState save_state() const { return {iht_.save_state(), last_lookup_}; }
  void restore_state(const CheckerState& s) {
    iht_.restore_state(s.iht);
    last_lookup_ = s.last_lookup;
  }

 private:
  CicConfig config_;
  std::unique_ptr<hash::HashFunctionUnit> hashfu_;
  hash::HashKind kind_;  // hashfu_->kind(), latched for the inline fast path
  std::uint32_t rhash_init_;  // hashfu_->init()
  Iht iht_;
  LookupKey last_lookup_;
};

}  // namespace cicmon::cic
