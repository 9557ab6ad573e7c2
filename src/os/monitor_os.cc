#include "os/monitor_os.h"

#include <algorithm>
#include <bit>

namespace cicmon::os {

std::string_view refill_mode_name(RefillMode mode) {
  switch (mode) {
    case RefillMode::kReplaceHalfPrefetch: return "replace-half-prefetch";
    case RefillMode::kReplaceHalfPrefetchBackward: return "replace-half-backward";
    case RefillMode::kSingleEntry: return "single-entry";
  }
  return "?";
}

std::string_view termination_cause_name(TerminationCause cause) {
  switch (cause) {
    case TerminationCause::kNone: return "none";
    case TerminationCause::kHashMismatch: return "hash-mismatch";
    case TerminationCause::kFhtHashMismatch: return "fht-hash-mismatch";
    case TerminationCause::kNotInFht: return "not-in-fht";
  }
  return "?";
}

OsMonitor::OsMonitor(const OsConfig& config, std::shared_ptr<const cfg::FullHashTable> fht)
    : config_(config), fht_(std::move(fht)) {}

OsMonitor::OsMonitor(const OsConfig& config, cfg::FullHashTable fht)
    : OsMonitor(config, std::make_shared<const cfg::FullHashTable>(std::move(fht))) {}

std::uint64_t OsMonitor::charge(std::uint64_t cycles) {
  stats_.cycles_charged += cycles;
  return cycles;
}

ExceptionOutcome OsMonitor::handle_hash_miss(const cic::LookupKey& key, cic::Iht* iht) {
  ++stats_.miss_exceptions;

  // FHT search. The table is sorted, so the software handler's probe count is
  // logarithmic; a linear-scan handler can be modelled by raising
  // fht_probe_cycles accordingly.
  const std::size_t index = fht_->find(key.start, key.end);
  const std::uint64_t probes =
      1 + static_cast<std::uint64_t>(fht_->empty() ? 0 : std::bit_width(fht_->size()));
  stats_.fht_probes += probes;
  const std::uint64_t cost =
      charge(config_.exception_cycles + probes * config_.fht_probe_cycles);

  ExceptionOutcome out;
  out.cycles = cost;
  if (index == cfg::FullHashTable::npos) {
    out.terminate = true;
    out.cause = TerminationCause::kNotInFht;
    return out;
  }
  if (fht_->record(index).hash != key.hash) {
    out.terminate = true;
    out.cause = TerminationCause::kFhtHashMismatch;
    return out;
  }

  refill(index, iht);
  return out;
}

ExceptionOutcome OsMonitor::handle_hash_mismatch(const cic::LookupKey&) {
  ++stats_.mismatch_exceptions;
  ExceptionOutcome out;
  out.cycles = charge(config_.exception_cycles);
  out.terminate = true;
  out.cause = TerminationCause::kHashMismatch;
  return out;
}

void OsMonitor::refill(std::size_t missed_index, cic::Iht* iht) {
  ++stats_.refills;
  const auto records = fht_->records();

  if (config_.refill_mode == RefillMode::kSingleEntry) {
    // Classic cache behaviour: Iht::fill evicts one victim by itself.
    const cfg::CheckRegion& r = records[missed_index];
    iht->fill(r.start, r.end, r.hash);
    ++stats_.records_loaded;
    return;
  }

  // "On each hash miss, the OS replaces half of the entries with hash
  // records from the FHT." The records chosen are the missed block plus the
  // blocks execution is about to reach: forward mode walks past each loaded
  // record's end address (skipping the overlapping mid-block sub-regions) to
  // the fall-through successor's record, stopping at a code gap — prefetching
  // across a gap would load another function's blocks and pollute the table.
  // Backward mode is the ablation variant that prefetches preceding blocks.
  const unsigned half = std::max(1U, iht->num_entries() / 2);
  const bool backward = config_.refill_mode == RefillMode::kReplaceHalfPrefetchBackward;
  constexpr std::uint32_t kMaxGapBytes = 16;

  std::vector<std::size_t> chosen;
  chosen.reserve(half);
  chosen.push_back(missed_index);
  std::size_t index = missed_index;
  std::uint32_t frontier = records[missed_index].end;
  while (chosen.size() < half) {
    if (backward) {
      if (index == 0) break;
      --index;
    } else {
      while (index < records.size() && records[index].start <= frontier) ++index;
      if (index == records.size() || records[index].start > frontier + kMaxGapBytes) break;
      frontier = records[index].end;
    }
    chosen.push_back(index);
  }

  // Evict only as many victims as we will actually load.
  iht->invalidate_victims(static_cast<unsigned>(chosen.size()));
  for (std::size_t record_index : chosen) {
    const cfg::CheckRegion& r = records[record_index];
    iht->fill(r.start, r.end, r.hash);
    ++stats_.records_loaded;
  }
}

}  // namespace cicmon::os
