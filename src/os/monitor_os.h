// OS model for monitoring exceptions (§3.3, OS-managed scheme).
//
// The paper assumes "an OS is in place to handle monitoring exceptions" and
// models its cost, not its instructions: each exception entry/exit charges a
// fixed cycle count (100 in §6.1). This module implements that contract:
//
//  * hash miss (exception0): search the Full Hash Table for the block.
//      - record found, expected hash equals the dynamic hash → refill the
//        IHT ("the OS replaces half of the entries with hash records from
//        the FHT") and resume the application;
//      - record found, hash differs → the code was altered: terminate;
//      - no record → execution reached a block the static analysis never
//        produced (corrupted control flow): terminate.
//  * hash mismatch (exception1): terminate immediately.
//
// Which FHT records refill the IHT is an OS policy choice the paper leaves
// open (and lists refining as future work); RefillMode enumerates the
// variants the ablation bench compares.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>

#include "cfg/fht.h"
#include "cic/checker.h"

namespace cicmon::os {

// What the refill loads after victims are invalidated.
//
// The paper's handler "replaces half of the entries with hash records from
// the FHT" and lists refining the policy as future work (§7). In this
// reproduction the demand-fill variant (kSingleEntry) tracks the paper's
// Table 1 behaviour far better than bulk replacement — wholesale eviction
// destroys the LRU set that small IHTs depend on — so it is the default;
// the ablation_replacement bench quantifies the difference.
enum class RefillMode : std::uint8_t {
  // Evict one LRU victim, load only the missed record (default).
  kSingleEntry,
  // Paper's wording: invalidate half the IHT, load the missed record plus
  // the records for the code about to execute (forward prefetch that skips
  // overlapping sub-regions and stops at code gaps).
  kReplaceHalfPrefetch,
  // As above, but prefetching the records that precede the miss (loops
  // re-enter earlier blocks).
  kReplaceHalfPrefetchBackward,
};

std::string_view refill_mode_name(RefillMode mode);

struct OsConfig {
  // Cycles charged per monitoring-exception handling (paper: 100).
  std::uint64_t exception_cycles = 100;
  // Extra cycles per FHT record probed during the search (0 folds the search
  // into exception_cycles, matching the paper's flat accounting).
  std::uint64_t fht_probe_cycles = 0;
  RefillMode refill_mode = RefillMode::kSingleEntry;
};

// Why the OS terminated the application.
enum class TerminationCause : std::uint8_t {
  kNone,
  kHashMismatch,     // exception1: IHT entry present, dynamic hash differs
  kFhtHashMismatch,  // miss path: FHT record present, dynamic hash differs
  kNotInFht,         // miss path: no FHT record for the block
};

std::string_view termination_cause_name(TerminationCause cause);

struct ExceptionOutcome {
  bool terminate = false;
  TerminationCause cause = TerminationCause::kNone;
  std::uint64_t cycles = 0;  // handling cost to charge the application
};

struct OsMonitorStats {
  std::uint64_t miss_exceptions = 0;
  std::uint64_t mismatch_exceptions = 0;
  std::uint64_t refills = 0;
  std::uint64_t records_loaded = 0;
  std::uint64_t fht_probes = 0;
  std::uint64_t cycles_charged = 0;

  bool operator==(const OsMonitorStats&) const = default;
};

class OsMonitor {
 public:
  // The FHT is immutable after load, so every monitor of one program can
  // share one table (fault-campaign trials do); the second form wraps a
  // table of its own.
  OsMonitor(const OsConfig& config, std::shared_ptr<const cfg::FullHashTable> fht);
  OsMonitor(const OsConfig& config, cfg::FullHashTable fht);

  // Handles exception0. On a benign capacity miss, refills `iht` and returns
  // terminate=false; otherwise returns the termination cause.
  ExceptionOutcome handle_hash_miss(const cic::LookupKey& key, cic::Iht* iht);

  // Handles exception1 (always terminates).
  ExceptionOutcome handle_hash_mismatch(const cic::LookupKey& key);

  const cfg::FullHashTable& fht() const { return *fht_; }
  const OsMonitorStats& stats() const { return stats_; }
  const OsConfig& config() const { return config_; }

  // Stats are the OS model's only mutable state (the FHT is immutable after
  // load), so snapshot restore is a plain stats overwrite.
  void restore_stats(const OsMonitorStats& stats) { stats_ = stats; }

 private:
  std::uint64_t charge(std::uint64_t cycles);
  void refill(std::size_t missed_index, cic::Iht* iht);

  OsConfig config_;
  std::shared_ptr<const cfg::FullHashTable> fht_;
  OsMonitorStats stats_;
};

}  // namespace cicmon::os
