// Tests for cicmon-golden-v1 (fault/golden_ser.h): key canonicalization,
// the encode/decode round trip (re-encoding is byte-identical, an imported
// runner is behaviorally identical to a derived one), strict rejection of
// corruption — any flipped byte, truncation, trailing garbage, or key skew
// fails validation — and the content-addressed on-disk cache, which must
// treat a bad entry as a miss, never as truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "casm/builder.h"
#include "fault/campaign.h"
#include "fault/golden_ser.h"
#include "support/error.h"

namespace cicmon::fault {
namespace {

using namespace cicmon::isa;

// The same self-checked loop test_fault.cc attacks: small enough that the
// golden run (and therefore encode/decode) is cheap to repeat.
casm_::Image checked_loop_program() {
  casm_::Asm a;
  a.func("main");
  a.li(kT0, 20);
  a.li(kT1, 0);
  casm_::Label loop = a.bound_label();
  a.addu(kT1, kT1, kT0);
  a.addiu(kT0, kT0, -1);
  a.bnez(kT0, loop);
  a.check_eq(kT1, 210);
  a.sys_exit(0);
  return a.finalize();
}

cpu::CpuConfig monitored_config() {
  cpu::CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 8;
  return config;
}

const std::string& test_key() {
  static const std::string key =
      golden_key({{"workload", "loop"}, {"trials", "48"}, {"seed", "9"}});
  return key;
}

// One derivation + encode, shared by every test below.
const std::string& golden_blob() {
  static const std::string blob = [] {
    CampaignRunner runner(checked_loop_program(), monitored_config());
    return encode_golden(runner.export_golden(), test_key());
  }();
  return blob;
}

std::string make_test_dir(const char* tag) {
  const std::string dir = testing::TempDir() + "cicmon_golden_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(GoldenKey, CanonicalDeterministicAndSensitiveToEveryField) {
  const std::string key = test_key();
  ASSERT_EQ(key.size(), 16U);
  for (const char c : key) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
  // Same fields, same key; any value or name change, a different key.
  EXPECT_EQ(key, golden_key({{"workload", "loop"}, {"trials", "48"}, {"seed", "9"}}));
  EXPECT_NE(key, golden_key({{"workload", "loop"}, {"trials", "49"}, {"seed", "9"}}));
  EXPECT_NE(key, golden_key({{"workload", "dijkstra"}, {"trials", "48"}, {"seed", "9"}}));
  EXPECT_NE(key, golden_key({{"workload", "loop"}, {"trials", "48"}}));
}

TEST(GoldenSer, RoundTripIsByteIdenticalAndImportsAnEquivalentRunner) {
  const std::string& blob = golden_blob();
  ASSERT_TRUE(golden_blob_valid(blob, test_key()));
  const GoldenState decoded = decode_golden(blob, test_key());
  // Deterministic encoding: decode -> encode reproduces the exact bytes,
  // which is what makes the shipped blob itself byte-diffable.
  EXPECT_EQ(encode_golden(decoded, test_key()), blob);

  // A runner rebuilt from the decoded state skips the golden run but must be
  // indistinguishable: same golden facts, same campaign summary.
  CampaignRunner derived(checked_loop_program(), monitored_config());
  CampaignRunner imported(checked_loop_program(), monitored_config(), {}, decoded);
  EXPECT_EQ(imported.golden_instructions(), derived.golden_instructions());
  EXPECT_EQ(imported.golden_console(), derived.golden_console());
  EXPECT_EQ(imported.snapshot_count(), derived.snapshot_count());
  EXPECT_EQ(imported.checkpoint_stride(), derived.checkpoint_stride());
  const CampaignSummary a = derived.run_random(FaultSite::kMemoryText, 1, 48, 9, 1);
  const CampaignSummary b = imported.run_random(FaultSite::kMemoryText, 1, 48, 9, 1);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.detected_mismatch, b.detected_mismatch);
  EXPECT_EQ(a.detected_miss, b.detected_miss);
  EXPECT_EQ(a.detected_baseline, b.detected_baseline);
  EXPECT_EQ(a.wrong_output, b.wrong_output);
  EXPECT_EQ(a.benign, b.benign);
  EXPECT_EQ(a.hang, b.hang);
}

TEST(GoldenSer, AnyFlippedByteFailsValidation) {
  const std::string& blob = golden_blob();
  // The trailing FNV-1a64 checksum covers every preceding byte and is itself
  // the last field, so a flip anywhere must invalidate the blob. Sweep the
  // whole record at a stride (plus both ends densely) to keep the test fast
  // without leaving an untested region.
  const std::size_t step = std::max<std::size_t>(1, blob.size() / 2048);
  auto expect_rejected = [&](std::size_t i) {
    std::string mutant = blob;
    mutant[i] ^= 0x40;
    EXPECT_FALSE(golden_blob_valid(mutant, test_key())) << "flip at byte " << i;
  };
  for (std::size_t i = 0; i < blob.size(); i += step) expect_rejected(i);
  for (std::size_t i = 0; i < 64 && i < blob.size(); ++i) {
    expect_rejected(i);                    // magic + key region
    expect_rejected(blob.size() - 1 - i);  // checksum region
  }
  // decode_golden is at least as strict as the cheap check.
  std::string mutant = blob;
  mutant[blob.size() / 2] ^= 0x40;
  EXPECT_THROW(decode_golden(mutant, test_key()), support::CicError);
}

TEST(GoldenSer, TruncationTrailingGarbageAndKeySkewAreRejected) {
  const std::string& blob = golden_blob();
  for (const std::size_t keep : {std::size_t{0}, std::size_t{15}, std::size_t{16},
                                 std::size_t{31}, blob.size() / 2, blob.size() - 1}) {
    EXPECT_FALSE(golden_blob_valid(blob.substr(0, keep), test_key())) << keep;
    EXPECT_THROW(decode_golden(blob.substr(0, keep), test_key()), support::CicError) << keep;
  }
  EXPECT_FALSE(golden_blob_valid(blob + "x", test_key()));
  EXPECT_THROW(decode_golden(blob + "x", test_key()), support::CicError);
  // The right bytes under the wrong key is config skew, not a valid blob.
  const std::string other = golden_key({{"workload", "loop"}, {"trials", "49"}});
  EXPECT_FALSE(golden_blob_valid(blob, other));
  EXPECT_THROW(decode_golden(blob, other), support::CicError);
}

TEST(GoldenSer, DuplicateValidIhtRangesAreRejectedAsCorrupt) {
  // A well-formed, correctly checksummed blob whose snapshot IHT holds two
  // valid entries on one (start, end) range: no run produces that state, and
  // the IHT's range index could not represent it, so decode rejects it and
  // the session or cache falls back to local derivation.
  GoldenState state = decode_golden(golden_blob(), test_key());
  ASSERT_FALSE(state.snapshots.empty());
  ASSERT_TRUE(state.snapshots.back().checker.has_value());
  std::vector<cic::IhtEntry>& entries = state.snapshots.back().checker->iht.entries;
  ASSERT_GE(entries.size(), 2U);
  const cic::IhtEntry entry{casm_::kTextBase, casm_::kTextBase + 8, 0x1234, true, 1, 1};
  entries[0] = entry;
  // One valid copy (plus an invalid one) is a state a run can reach.
  entries[1] = entry;
  entries[1].valid = false;
  EXPECT_NO_THROW(decode_golden(encode_golden(state, test_key()), test_key()));
  entries[1].valid = true;
  const std::string blob = encode_golden(state, test_key());
  ASSERT_TRUE(golden_blob_valid(blob, test_key()));  // intact bytes, corrupt meaning
  EXPECT_THROW(decode_golden(blob, test_key()), support::CicError);
}

TEST(GoldenCache, ContentAddressedHitMissAndRoundTrip) {
  const std::string dir = make_test_dir("cache");
  // Empty cache: a miss, not an error.
  EXPECT_TRUE(load_cached_golden(dir, test_key()).empty());
  store_cached_golden(dir, test_key(), golden_blob());
  EXPECT_EQ(load_cached_golden(dir, test_key()), golden_blob());
  // A changed campaign parameter produces a different key — and a miss, even
  // though another entry sits right next to it.
  const std::string other = golden_key({{"workload", "loop"}, {"trials", "49"}});
  ASSERT_NE(other, test_key());
  EXPECT_TRUE(load_cached_golden(dir, other).empty());
}

TEST(GoldenCache, TruncatedEntryIsIgnoredAndRewritten) {
  const std::string dir = make_test_dir("cache_trunc");
  // A half-written entry (crashed process, full disk): must read as a miss.
  const std::string path = golden_cache_path(dir, test_key());
  {
    std::ofstream out(path, std::ios::binary);
    out << golden_blob().substr(0, golden_blob().size() / 3);
  }
  EXPECT_TRUE(load_cached_golden(dir, test_key()).empty());
  // The re-derivation path overwrites it with a valid entry.
  store_cached_golden(dir, test_key(), golden_blob());
  EXPECT_EQ(load_cached_golden(dir, test_key()), golden_blob());
}

}  // namespace
}  // namespace cicmon::fault
