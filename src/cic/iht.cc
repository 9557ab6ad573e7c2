#include "cic/iht.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/error.h"

namespace cicmon::cic {

std::string_view replace_policy_name(ReplacePolicy policy) {
  switch (policy) {
    case ReplacePolicy::kLru: return "lru";
    case ReplacePolicy::kFifo: return "fifo";
    case ReplacePolicy::kRandom: return "random";
  }
  return "?";
}

bool ranges_unique(const IhtState& state) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  for (const IhtEntry& entry : state.entries) {
    if (entry.valid) ranges.emplace_back(entry.start, entry.end);
  }
  std::sort(ranges.begin(), ranges.end());
  return std::adjacent_find(ranges.begin(), ranges.end()) == ranges.end();
}

Iht::Iht(unsigned num_entries, ReplacePolicy policy, std::uint64_t rng_seed)
    : entries_(num_entries), policy_(policy), rng_(rng_seed) {
  support::check(num_entries >= 1, "IHT must have at least one entry");
  // At most a quarter full: 4 x capacity, rounded up to a power of two.
  unsigned bits = 2;
  while ((std::size_t{1} << bits) < std::size_t{4} * num_entries) ++bits;
  index_.resize(std::size_t{1} << bits);
  index_mask_ = index_.size() - 1;
  index_shift_ = 64 - bits;
}

bool Iht::index_insert(std::uint32_t start, std::uint32_t end, std::uint32_t slot) {
  std::size_t i = home(start, end);
  for (; index_[i].slot != kNoSlot; i = (i + 1) & index_mask_) {
    if (index_[i].start == start && index_[i].end == end) return false;
  }
  index_[i] = Bucket{start, end, slot};
  return true;
}

void Iht::index_erase(std::uint32_t start, std::uint32_t end) {
  std::size_t hole = home(start, end);
  while (index_[hole].start != start || index_[hole].end != end) {
    hole = (hole + 1) & index_mask_;
  }
  // Backward-shift deletion: pull each later bucket of the probe run into
  // the hole unless its home lies cyclically in (hole, j] — moving it there
  // would put it before its home, where no probe would find it.
  for (std::size_t j = (hole + 1) & index_mask_; index_[j].slot != kNoSlot;
       j = (j + 1) & index_mask_) {
    const std::size_t want = home(index_[j].start, index_[j].end);
    const bool stays = hole <= j ? (hole < want && want <= j) : (hole < want || want <= j);
    if (stays) continue;
    index_[hole] = index_[j];
    hole = j;
  }
  index_[hole] = Bucket{};
}

void Iht::invalidate_slot(std::size_t slot) {
  index_erase(entries_[slot].start, entries_[slot].end);
  entries_[slot].valid = false;
}

void Iht::fill(std::uint32_t start, std::uint32_t end, std::uint32_t hash) {
  ++fill_clock_;
  // Overwrite an existing record for the same range, if any.
  if (const std::uint32_t slot = find(start, end); slot != kNoSlot) {
    entries_[slot].hash = hash;
    entries_[slot].fill_order = fill_clock_;
    return;
  }
  const std::size_t slot = victim_index();
  if (entries_[slot].valid) invalidate_slot(slot);
  entries_[slot] =
      IhtEntry{start, end, hash, true, /*last_use=*/use_clock_, /*fill_order=*/fill_clock_};
  index_insert(start, end, static_cast<std::uint32_t>(slot));
}

std::size_t Iht::victim_index() {
  // Prefer an invalid slot.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].valid) return i;
  }
  switch (policy_) {
    case ReplacePolicy::kLru: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].last_use < entries_[best].last_use) best = i;
      }
      return best;
    }
    case ReplacePolicy::kFifo: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < entries_.size(); ++i) {
        if (entries_[i].fill_order < entries_[best].fill_order) best = i;
      }
      return best;
    }
    case ReplacePolicy::kRandom:
      return static_cast<std::size_t>(rng_.below(entries_.size()));
  }
  return 0;
}

unsigned Iht::invalidate_victims(unsigned count) {
  unsigned invalidated = 0;
  for (; invalidated < count && valid_entries() > 0; ++invalidated) {
    // victim_index() never returns an invalid slot here because at least one
    // valid entry remains only if all slots are valid — otherwise we stop
    // invalidating early below.
    std::size_t victim = entries_.size();
    switch (policy_) {
      case ReplacePolicy::kLru: {
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
          if (entries_[i].valid && entries_[i].last_use < best) {
            best = entries_[i].last_use;
            victim = i;
          }
        }
        break;
      }
      case ReplacePolicy::kFifo: {
        std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
          if (entries_[i].valid && entries_[i].fill_order < best) {
            best = entries_[i].fill_order;
            victim = i;
          }
        }
        break;
      }
      case ReplacePolicy::kRandom: {
        // Uniform among valid entries.
        const unsigned valid = valid_entries();
        std::uint64_t pick = rng_.below(valid);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
          if (!entries_[i].valid) continue;
          if (pick == 0) {
            victim = i;
            break;
          }
          --pick;
        }
        break;
      }
    }
    if (victim == entries_.size()) break;
    invalidate_slot(victim);
  }
  return invalidated;
}

void Iht::invalidate_all() {
  for (IhtEntry& entry : entries_) entry.valid = false;
  std::fill(index_.begin(), index_.end(), Bucket{});
}

void Iht::restore_state(const IhtState& s) {
  support::check(s.entries.size() == entries_.size(),
                 "Iht::restore_state: capacity mismatch");
  // Rebuild the index from the incoming entries; a duplicate range rebuilds
  // it from the current ones instead and rejects the state, leaving this
  // table unchanged.
  const auto rebuild = [this](const std::vector<IhtEntry>& entries) {
    std::fill(index_.begin(), index_.end(), Bucket{});
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].valid &&
          !index_insert(entries[i].start, entries[i].end, static_cast<std::uint32_t>(i))) {
        return false;
      }
    }
    return true;
  };
  if (!rebuild(s.entries)) {
    rebuild(entries_);
    throw support::CicError("Iht::restore_state: two valid entries share a range");
  }
  entries_ = s.entries;
  stats_ = s.stats;
  use_clock_ = s.use_clock;
  fill_clock_ = s.fill_clock;
  rng_.set_state(s.rng);
}

unsigned Iht::valid_entries() const {
  unsigned count = 0;
  for (const IhtEntry& entry : entries_) count += entry.valid ? 1U : 0U;
  return count;
}

}  // namespace cicmon::cic
