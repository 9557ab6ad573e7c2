// Code Integrity Checker tests: IHT lookup semantics, replacement policies,
// statistics, and the checker device.
#include <gtest/gtest.h>

#include "cic/checker.h"
#include "cic/iht.h"
#include "support/error.h"
#include "support/rng.h"

namespace cicmon::cic {
namespace {

TEST(Iht, HitMissMismatchTaxonomy) {
  Iht iht(4, ReplacePolicy::kLru);
  iht.fill(0x100, 0x10C, 0xAAAA);

  const auto hit = iht.lookup(0x100, 0x10C, 0xAAAA);
  EXPECT_TRUE(hit.found);
  EXPECT_TRUE(hit.match);

  const auto mismatch = iht.lookup(0x100, 0x10C, 0xBBBB);
  EXPECT_TRUE(mismatch.found);
  EXPECT_FALSE(mismatch.match);

  const auto miss = iht.lookup(0x200, 0x20C, 0xAAAA);
  EXPECT_FALSE(miss.found);
  EXPECT_FALSE(miss.match);

  EXPECT_EQ(iht.stats().lookups, 3U);
  EXPECT_EQ(iht.stats().hits, 1U);
  EXPECT_EQ(iht.stats().mismatches, 1U);
  EXPECT_EQ(iht.stats().misses, 1U);
  EXPECT_DOUBLE_EQ(iht.stats().miss_rate(), 1.0 / 3.0);
}

TEST(Iht, MatchRequiresBothAddresses) {
  Iht iht(2, ReplacePolicy::kLru);
  iht.fill(0x100, 0x10C, 1);
  EXPECT_FALSE(iht.lookup(0x100, 0x110, 1).found);  // same start, other end
  EXPECT_FALSE(iht.lookup(0x104, 0x10C, 1).found);  // other start, same end
}

TEST(Iht, FillOverwritesSameRange) {
  Iht iht(2, ReplacePolicy::kLru);
  iht.fill(0x100, 0x10C, 1);
  iht.fill(0x100, 0x10C, 2);
  EXPECT_EQ(iht.valid_entries(), 1U);
  EXPECT_TRUE(iht.lookup(0x100, 0x10C, 2).match);
}

TEST(Iht, LruVictimIsLeastRecentlyMatched) {
  Iht iht(2, ReplacePolicy::kLru);
  iht.fill(0x100, 0x10C, 1);
  iht.fill(0x200, 0x20C, 2);
  iht.lookup(0x100, 0x10C, 1);      // touch the first entry
  iht.fill(0x300, 0x30C, 3);        // must evict 0x200
  EXPECT_TRUE(iht.lookup(0x100, 0x10C, 1).found);
  EXPECT_FALSE(iht.lookup(0x200, 0x20C, 2).found);
  EXPECT_TRUE(iht.lookup(0x300, 0x30C, 3).found);
}

TEST(Iht, FifoVictimIsOldestFill) {
  Iht iht(2, ReplacePolicy::kFifo);
  iht.fill(0x100, 0x10C, 1);
  iht.fill(0x200, 0x20C, 2);
  iht.lookup(0x100, 0x10C, 1);  // touching must NOT matter for FIFO
  iht.fill(0x300, 0x30C, 3);    // evicts 0x100 (oldest fill)
  EXPECT_FALSE(iht.lookup(0x100, 0x10C, 1).found);
  EXPECT_TRUE(iht.lookup(0x200, 0x20C, 2).found);
}

TEST(Iht, RandomPolicyIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Iht iht(4, ReplacePolicy::kRandom, seed);
    for (std::uint32_t i = 0; i < 16; ++i) iht.fill(i * 0x10, i * 0x10 + 8, i);
    std::vector<std::uint32_t> survivors;
    for (const IhtEntry& e : iht.entries()) survivors.push_back(e.start);
    return survivors;
  };
  EXPECT_EQ(run(42), run(42));
}

TEST(Iht, InvalidateVictimsRespectsCount) {
  Iht iht(8, ReplacePolicy::kLru);
  for (std::uint32_t i = 0; i < 8; ++i) iht.fill(i * 0x10, i * 0x10 + 8, i);
  EXPECT_EQ(iht.invalidate_victims(4), 4U);
  EXPECT_EQ(iht.valid_entries(), 4U);
  EXPECT_EQ(iht.invalidate_victims(100), 4U);  // stops at empty
  EXPECT_EQ(iht.valid_entries(), 0U);
}

TEST(Iht, InvalidateVictimsPrefersLru) {
  Iht iht(4, ReplacePolicy::kLru);
  for (std::uint32_t i = 0; i < 4; ++i) iht.fill(i * 0x10, i * 0x10 + 8, i);
  iht.lookup(0x00, 0x08, 0);  // make entry 0 the most recent
  iht.invalidate_victims(3);
  EXPECT_EQ(iht.valid_entries(), 1U);
  EXPECT_TRUE(iht.lookup(0x00, 0x08, 0).found);
}

TEST(Iht, InvalidateAll) {
  Iht iht(4, ReplacePolicy::kLru);
  iht.fill(0x100, 0x108, 1);
  iht.invalidate_all();
  EXPECT_EQ(iht.valid_entries(), 0U);
  EXPECT_FALSE(iht.lookup(0x100, 0x108, 1).found);
}

TEST(Iht, SingleEntryTableWorks) {
  Iht iht(1, ReplacePolicy::kLru);
  iht.fill(0x100, 0x108, 1);
  EXPECT_TRUE(iht.lookup(0x100, 0x108, 1).match);
  iht.fill(0x200, 0x208, 2);  // replaces the only slot
  EXPECT_FALSE(iht.lookup(0x100, 0x108, 1).found);
}

TEST(Iht, ZeroEntriesRejected) {
  EXPECT_THROW(Iht(0, ReplacePolicy::kLru), support::CicError);
}

TEST(Iht, ResetStatsKeepsContents) {
  Iht iht(2, ReplacePolicy::kLru);
  iht.fill(0x100, 0x108, 1);
  iht.lookup(0x100, 0x108, 1);
  iht.reset_stats();
  EXPECT_EQ(iht.stats().lookups, 0U);
  EXPECT_TRUE(iht.lookup(0x100, 0x108, 1).found);
}

TEST(Iht, RestoreRejectsDuplicateRangesAndKeepsTheTable) {
  Iht iht(4, ReplacePolicy::kLru);
  iht.fill(0x100, 0x10C, 1);
  const IhtState before = iht.save_state();
  IhtState corrupt = before;
  corrupt.entries[2] = corrupt.entries[0];  // a second valid (0x100, 0x10C)
  corrupt.entries[2].hash = 2;
  EXPECT_FALSE(ranges_unique(corrupt));
  EXPECT_TRUE(ranges_unique(before));
  EXPECT_THROW(iht.restore_state(corrupt), support::CicError);
  EXPECT_EQ(iht.save_state(), before);
  EXPECT_TRUE(iht.lookup(0x100, 0x10C, 1).match);
  // The same range twice is fine while at most one copy is valid.
  corrupt.entries[2].valid = false;
  EXPECT_TRUE(ranges_unique(corrupt));
  iht.restore_state(corrupt);
  EXPECT_TRUE(iht.lookup(0x100, 0x10C, 1).match);
  EXPECT_THROW(iht.restore_state(IhtState{}), support::CicError);  // capacity mismatch
}

// --- Differential test: the indexed IHT against a linear-scan model ---------
//
// RefIht is the table as it was before the range index: every lookup and
// fill scans the entries. Seeded random operation sequences must leave both
// with identical lookup results, statistics and complete saved state.

class RefIht {
 public:
  RefIht(unsigned num_entries, ReplacePolicy policy, std::uint64_t seed)
      : entries_(num_entries), policy_(policy), rng_(seed) {}

  uop::IhtLookupResult lookup(std::uint32_t start, std::uint32_t end, std::uint32_t hash) {
    ++stats_.lookups;
    ++use_clock_;
    for (IhtEntry& entry : entries_) {
      if (!entry.valid || entry.start != start || entry.end != end) continue;
      entry.last_use = use_clock_;
      if (entry.hash == hash) {
        ++stats_.hits;
        return {true, true};
      }
      ++stats_.mismatches;
      return {true, false};
    }
    ++stats_.misses;
    return {false, false};
  }

  void fill(std::uint32_t start, std::uint32_t end, std::uint32_t hash) {
    ++fill_clock_;
    for (IhtEntry& entry : entries_) {
      if (entry.valid && entry.start == start && entry.end == end) {
        entry.hash = hash;
        entry.fill_order = fill_clock_;
        return;
      }
    }
    std::size_t slot = entries_.size();
    for (std::size_t i = 0; i < entries_.size() && slot == entries_.size(); ++i) {
      if (!entries_[i].valid) slot = i;
    }
    if (slot == entries_.size()) slot = victim(/*valid_only=*/false);
    entries_[slot] = IhtEntry{start, end, hash, true, use_clock_, fill_clock_};
  }

  unsigned invalidate_victims(unsigned count) {
    unsigned done = 0;
    for (; done < count && valid_entries() > 0; ++done) entries_[victim(true)].valid = false;
    return done;
  }

  void invalidate_all() {
    for (IhtEntry& entry : entries_) entry.valid = false;
  }

  IhtState save_state() const { return {entries_, stats_, use_clock_, fill_clock_, rng_.state()}; }
  void restore_state(const IhtState& s) {
    entries_ = s.entries;
    stats_ = s.stats;
    use_clock_ = s.use_clock;
    fill_clock_ = s.fill_clock;
    rng_.set_state(s.rng);
  }

 private:
  unsigned valid_entries() const {
    unsigned n = 0;
    for (const IhtEntry& entry : entries_) n += entry.valid ? 1U : 0U;
    return n;
  }

  // The policy's victim: among valid entries (invalidation), or among all
  // slots of a full table (fill).
  std::size_t victim(bool valid_only) {
    if (policy_ == ReplacePolicy::kRandom) {
      if (!valid_only) return static_cast<std::size_t>(rng_.below(entries_.size()));
      std::uint64_t pick = rng_.below(valid_entries());
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].valid && pick-- == 0) return i;
      }
    }
    std::size_t best = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (valid_only && !entries_[i].valid) continue;
      const auto key = [this](std::size_t j) {
        return policy_ == ReplacePolicy::kLru ? entries_[j].last_use : entries_[j].fill_order;
      };
      if (best == entries_.size() || key(i) < key(best)) best = i;
    }
    return best;
  }

  std::vector<IhtEntry> entries_;
  ReplacePolicy policy_;
  support::Rng rng_;
  IhtStats stats_;
  std::uint64_t use_clock_ = 0;
  std::uint64_t fill_clock_ = 0;
};

TEST(Iht, IndexedTableMatchesLinearScanModel) {
  for (const ReplacePolicy policy :
       {ReplacePolicy::kLru, ReplacePolicy::kFifo, ReplacePolicy::kRandom}) {
    for (const unsigned capacity : {1U, 2U, 8U, 16U, 32U, 64U}) {
      for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        SCOPED_TRACE(std::string(replace_policy_name(policy)) + " capacity " +
                     std::to_string(capacity) + " seed " + std::to_string(seed));
        Iht iht(capacity, policy, seed);
        RefIht ref(capacity, policy, seed);
        support::Rng ops(seed * 1000 + capacity);
        // A range pool about twice the capacity keeps hits, misses and
        // evictions all common; ends are drawn per start so one start also
        // appears with other ends (MatchRequiresBothAddresses).
        const std::uint32_t pool = 2 * capacity + 3;
        std::vector<IhtState> saved = {iht.save_state()};
        for (int step = 0; step < 4000; ++step) {
          const std::uint32_t start = 0x400000 + 0x40 * static_cast<std::uint32_t>(ops.below(pool));
          const std::uint32_t end = start + 4 * static_cast<std::uint32_t>(ops.below(3));
          const std::uint32_t hash = static_cast<std::uint32_t>(ops.below(3));
          const std::uint64_t op = ops.below(100);
          if (op < 50) {
            const uop::IhtLookupResult a = iht.lookup(start, end, hash);
            const uop::IhtLookupResult b = ref.lookup(start, end, hash);
            ASSERT_EQ(a.found, b.found) << "step " << step;
            ASSERT_EQ(a.match, b.match) << "step " << step;
          } else if (op < 80) {
            iht.fill(start, end, hash);
            ref.fill(start, end, hash);
          } else if (op < 88) {
            const auto count = static_cast<unsigned>(ops.below(capacity + 1));
            ASSERT_EQ(iht.invalidate_victims(count), ref.invalidate_victims(count));
          } else if (op < 90) {
            iht.invalidate_all();
            ref.invalidate_all();
          } else if (op < 95) {
            saved.push_back(iht.save_state());
          } else {
            const IhtState& s = saved[ops.below(saved.size())];
            iht.restore_state(s);
            ref.restore_state(s);
          }
          ASSERT_EQ(iht.stats(), ref.save_state().stats) << "step " << step;
          ASSERT_EQ(iht.save_state(), ref.save_state()) << "step " << step;
        }
      }
    }
  }
}

TEST(PolicyNames, AllNamed) {
  EXPECT_EQ(replace_policy_name(ReplacePolicy::kLru), "lru");
  EXPECT_EQ(replace_policy_name(ReplacePolicy::kFifo), "fifo");
  EXPECT_EQ(replace_policy_name(ReplacePolicy::kRandom), "random");
}

TEST(Checker, ForwardsToConfiguredHash) {
  CicConfig config;
  config.hash_kind = hash::HashKind::kXor;
  CodeIntegrityChecker cic(config);
  EXPECT_EQ(cic.hash_step(0xF0F0, 0x0F0F), 0xFFFFU);
  EXPECT_EQ(cic.rhash_init(), 0U);
}

TEST(Checker, KeyedHashUsesProcessKey) {
  CicConfig config;
  config.hash_kind = hash::HashKind::kRotXorKeyed;
  config.hash_key = 0xDEAD;
  CodeIntegrityChecker cic(config);
  EXPECT_EQ(cic.rhash_init(), 0xDEADU);
}

TEST(Checker, LatchesLastLookupKeyForTheOs) {
  CicConfig config;
  CodeIntegrityChecker cic(config);
  cic.lookup(0x111, 0x222, 0x333);
  EXPECT_EQ(cic.last_lookup().start, 0x111U);
  EXPECT_EQ(cic.last_lookup().end, 0x222U);
  EXPECT_EQ(cic.last_lookup().hash, 0x333U);
}

TEST(Checker, StatsFlowThroughToIht) {
  CicConfig config;
  config.iht_entries = 2;
  CodeIntegrityChecker cic(config);
  cic.lookup(1, 2, 3);
  EXPECT_EQ(cic.iht().stats().misses, 1U);
}

}  // namespace
}  // namespace cicmon::cic
