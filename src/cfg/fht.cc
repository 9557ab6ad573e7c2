#include "cfg/fht.h"

#include <algorithm>

#include "support/error.h"

namespace cicmon::cfg {
namespace {

constexpr std::uint8_t kMagic[4] = {'F', 'H', 'T', '1'};

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t value) {
  out->push_back(static_cast<std::uint8_t>(value));
  out->push_back(static_cast<std::uint8_t>(value >> 8));
  out->push_back(static_cast<std::uint8_t>(value >> 16));
  out->push_back(static_cast<std::uint8_t>(value >> 24));
}

std::uint32_t get_u32(std::span<const std::uint8_t> bytes, std::size_t offset) {
  return static_cast<std::uint32_t>(bytes[offset]) |
         static_cast<std::uint32_t>(bytes[offset + 1]) << 8 |
         static_cast<std::uint32_t>(bytes[offset + 2]) << 16 |
         static_cast<std::uint32_t>(bytes[offset + 3]) << 24;
}

bool region_less(const CheckRegion& a, const CheckRegion& b) {
  return a.start != b.start ? a.start < b.start : a.end < b.end;
}

}  // namespace

FullHashTable::FullHashTable(std::vector<CheckRegion> records) : records_(std::move(records)) {
  std::sort(records_.begin(), records_.end(), region_less);
  for (std::size_t i = 1; i < records_.size(); ++i) {
    support::check(records_[i - 1].start != records_[i].start ||
                       records_[i - 1].end != records_[i].end,
                   "FullHashTable: duplicate (start, end) record");
  }
}

std::size_t FullHashTable::find(std::uint32_t start, std::uint32_t end) const {
  const CheckRegion key{start, end, 0};
  const auto it = std::lower_bound(records_.begin(), records_.end(), key, region_less);
  if (it == records_.end() || it->start != start || it->end != end) return npos;
  return static_cast<std::size_t>(it - records_.begin());
}

std::optional<std::uint32_t> FullHashTable::expected_hash(std::uint32_t start,
                                                          std::uint32_t end) const {
  const std::size_t index = find(start, end);
  if (index == npos) return std::nullopt;
  return records_[index].hash;
}

std::vector<std::uint8_t> FullHashTable::serialize() const {
  // The magic is the initial contents: inserting it after reserve() trips a
  // GCC 12 -Wstringop-overflow false positive.
  std::vector<std::uint8_t> out(std::begin(kMagic), std::end(kMagic));
  out.reserve(8 + records_.size() * 12);
  put_u32(&out, static_cast<std::uint32_t>(records_.size()));
  for (const CheckRegion& r : records_) {
    put_u32(&out, r.start);
    put_u32(&out, r.end);
    put_u32(&out, r.hash);
  }
  return out;
}

FullHashTable FullHashTable::deserialize(std::span<const std::uint8_t> bytes) {
  support::check(bytes.size() >= 8, "FHT blob too short for header");
  support::check(std::equal(std::begin(kMagic), std::end(kMagic), bytes.begin()),
                 "FHT blob has wrong magic");
  const std::uint32_t count = get_u32(bytes, 4);
  support::check(bytes.size() == 8 + static_cast<std::size_t>(count) * 12,
                 "FHT blob length does not match record count");
  std::vector<CheckRegion> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t base = 8 + static_cast<std::size_t>(i) * 12;
    records.push_back(
        CheckRegion{get_u32(bytes, base), get_u32(bytes, base + 4), get_u32(bytes, base + 8)});
  }
  return FullHashTable(std::move(records));
}

FullHashTable build_fht(const casm_::Image& image, const hash::HashFunctionUnit& unit) {
  return FullHashTable(enumerate_check_regions(image, unit));
}

}  // namespace cicmon::cfg
