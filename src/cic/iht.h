// Internal Hash Table (IHTbb) — the on-chip CAM of expected-hash tuples.
//
// Each entry is the paper's (Addst, Addend, Hash) tuple. A lookup presents
// (start, end, hash): the CAM matches on the address pair and compares the
// hash, producing the two wires of Figure 4 — `found` (an entry with this
// address range exists) and `match` (its hash equals the dynamic hash).
//
// The table also carries the bookkeeping the OS refill handler needs:
// per-entry last-use stamps (for LRU-family victim selection) and fill
// order (for FIFO). Victim *selection* lives here because the hardware
// implements it (§3.3: "specific hardwares are designed to implement the
// replacement policy"); the *refill decision* — which FHT records to load —
// is OS policy and lives in src/os.
//
// The CAM's associative match is simulated by an exact (start, end) -> slot
// index beside the entries (see `index_`), so a lookup costs the same at 8
// entries as at 64. The index is a pure accelerator: the entries, their
// stamps, victim selection and the saved IhtState are exactly what a linear
// scan of the table would see, which relies on the invariant that no two
// valid entries share a range (fill overwrites in place; restore_state
// rejects a state that breaks it).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "support/rng.h"
#include "uop/interp.h"

namespace cicmon::cic {

// Victim-selection policy for refills when the table is full.
enum class ReplacePolicy : std::uint8_t {
  kLru,     // evict least-recently matched entries
  kFifo,    // evict oldest-filled entries
  kRandom,  // evict uniformly random valid entries
};

std::string_view replace_policy_name(ReplacePolicy policy);

struct IhtEntry {
  std::uint32_t start = 0;
  std::uint32_t end = 0;
  std::uint32_t hash = 0;
  bool valid = false;
  std::uint64_t last_use = 0;   // lookup stamp of the last address match
  std::uint64_t fill_order = 0; // monotone fill counter

  bool operator==(const IhtEntry&) const = default;
};

struct IhtStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;        // found && match
  std::uint64_t misses = 0;      // !found
  std::uint64_t mismatches = 0;  // found && !match

  double miss_rate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(lookups);
  }

  bool operator==(const IhtStats&) const = default;
};

// Complete mutable IHT state, for simulator snapshots: entries, statistics,
// the LRU/FIFO clocks, and the random-replacement RNG mid-stream. Capacity
// and policy are configuration, assumed identical on both sides.
struct IhtState {
  std::vector<IhtEntry> entries;
  IhtStats stats;
  std::uint64_t use_clock = 0;
  std::uint64_t fill_clock = 0;
  support::Rng::State rng;

  bool operator==(const IhtState&) const = default;
};

// True when no two valid entries of `state` share a (start, end) range — an
// invariant every run keeps. The golden decoder rejects a state breaking it.
bool ranges_unique(const IhtState& state);

class Iht {
 public:
  // `num_entries` >= 1 (the paper evaluates 1/8/16/32).
  Iht(unsigned num_entries, ReplacePolicy policy, std::uint64_t rng_seed = 1);

  // The hardware lookup of Figure 4. Updates statistics and, on an address
  // match, the entry's LRU stamp. Inline: the monitored pipeline probes the
  // CAM once per executed basic block, and the probe goes through the range
  // index — O(1) in the table's capacity, like the single-cycle CAM match.
  uop::IhtLookupResult lookup(std::uint32_t start, std::uint32_t end, std::uint32_t hash) {
    ++stats_.lookups;
    ++use_clock_;
    const std::uint32_t slot = find(start, end);
    if (slot == kNoSlot) {
      ++stats_.misses;
      return {false, false};
    }
    IhtEntry& entry = entries_[slot];
    entry.last_use = use_clock_;
    if (entry.hash == hash) {
      ++stats_.hits;
      return {true, true};
    }
    ++stats_.mismatches;
    return {true, false};
  }

  // Fills an entry with an expected-hash record. If a (start, end) entry
  // already exists it is overwritten in place; otherwise an invalid slot is
  // used, or a victim chosen by the replacement policy.
  void fill(std::uint32_t start, std::uint32_t end, std::uint32_t hash);

  // Invalidates the `count` best victims under the policy (the OS "replace
  // half of the entries" step). Returns the number actually invalidated.
  unsigned invalidate_victims(unsigned count);

  void invalidate_all();

  unsigned num_entries() const { return static_cast<unsigned>(entries_.size()); }
  unsigned valid_entries() const;
  const std::vector<IhtEntry>& entries() const { return entries_; }
  const IhtStats& stats() const { return stats_; }
  void reset_stats() { stats_ = IhtStats{}; }

  IhtState save_state() const { return {entries_, stats_, use_clock_, fill_clock_, rng_.state()}; }
  // Throws CicError on a capacity mismatch or a corrupt state (two valid
  // entries with the same range, which no run can produce).
  void restore_state(const IhtState& s);

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFU;
  // One bucket of the range index: a valid entry's key and its slot.
  struct Bucket {
    std::uint32_t start = 0;
    std::uint32_t end = 0;
    std::uint32_t slot = kNoSlot;  // kNoSlot: empty bucket
  };

  // Fibonacci hashing of the 64-bit (start, end) key: its top bits.
  std::size_t home(std::uint32_t start, std::uint32_t end) const {
    const std::uint64_t key = (static_cast<std::uint64_t>(start) << 32) | end;
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> index_shift_);
  }
  // The slot of the valid entry with this range, or kNoSlot.
  std::uint32_t find(std::uint32_t start, std::uint32_t end) const {
    for (std::size_t i = home(start, end);; i = (i + 1) & index_mask_) {
      const Bucket& b = index_[i];
      if (b.slot == kNoSlot) return kNoSlot;
      if (b.start == start && b.end == end) return b.slot;
    }
  }
  // Index upkeep: `index_insert` adds a range that is not indexed yet (false
  // if it already is); `index_erase` removes an indexed range.
  bool index_insert(std::uint32_t start, std::uint32_t end, std::uint32_t slot);
  void index_erase(std::uint32_t start, std::uint32_t end);
  void invalidate_slot(std::size_t slot);

  std::size_t victim_index();

  std::vector<IhtEntry> entries_;
  // Exact (start, end) -> slot index over the valid entries: open addressing
  // with linear probing and backward-shift deletion, at most a quarter full
  // (the power of two >= 4 x capacity buckets), so a probe touches one or two
  // buckets whatever the capacity. Kept in step with `entries_` on the cold
  // paths only — fill, invalidate_victims, invalidate_all and restore_state
  // (which rebuilds it); it is derived state, never saved.
  std::vector<Bucket> index_;
  std::size_t index_mask_ = 0;
  unsigned index_shift_ = 0;
  ReplacePolicy policy_;
  support::Rng rng_;
  IhtStats stats_;
  std::uint64_t use_clock_ = 0;
  std::uint64_t fill_clock_ = 0;
};

}  // namespace cicmon::cic
