// Fault-injection tests: per-site detectability (§3.2), the XOR odd-flip
// guarantee (§6.3), baseline traps, and campaign determinism.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "casm/builder.h"
#include "exp/sweep.h"
#include "fault/campaign.h"
#include "fault/golden_ser.h"
#include "support/bitops.h"
#include "support/rng.h"
#include "support/strings.h"
#include "uop/uop.h"
#include "workloads/workloads.h"

namespace cicmon::fault {
namespace {

using namespace cicmon::isa;

casm_::Image checked_loop_program() {
  // A loop whose result is self-checked, so silent corruption is observable.
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

TEST(Campaign, GoldenRunFacts) {
  CampaignRunner runner(checked_loop_program(), monitored_config());
  EXPECT_GT(runner.golden_instructions(), 50U);
  EXPECT_EQ(runner.golden_console(), "");
}

TEST(Campaign, MemoryFlipInLoopBodyIsCaught) {
  CampaignRunner runner(checked_loop_program(), monitored_config());
  FaultSpec spec;
  spec.site = FaultSite::kMemoryText;
  spec.target_address = casm_::kTextBase + 8;  // the addu inside the loop
  spec.xor_mask = 1U << 11;                    // rd field bit: stays a valid instr
  const TrialResult trial = runner.run_trial(spec);
  EXPECT_TRUE(is_detected(trial.outcome)) << outcome_name(trial.outcome);
  EXPECT_EQ(trial.outcome, Outcome::kDetectedMismatch);
}

TEST(Campaign, SameFlipEscapesWithoutMonitor) {
  cpu::CpuConfig off;  // monitoring disabled
  CampaignRunner runner(checked_loop_program(), off);
  FaultSpec spec;
  spec.site = FaultSite::kMemoryText;
  spec.target_address = casm_::kTextBase + 8;
  spec.xor_mask = 1U << 11;  // addu result goes to the wrong register
  const TrialResult trial = runner.run_trial(spec);
  // Without the CIC the corruption surfaces only through the self-check.
  EXPECT_FALSE(is_detected(trial.outcome)) << outcome_name(trial.outcome);
}

TEST(Campaign, BusFaultCaughtAtBlockEnd) {
  CampaignRunner runner(checked_loop_program(), monitored_config());
  FaultSpec spec;
  spec.site = FaultSite::kFetchBus;
  spec.trigger_index = 5;  // somewhere inside the loop
  spec.xor_mask = 1U << 3;
  const TrialResult trial = runner.run_trial(spec);
  EXPECT_TRUE(is_detected(trial.outcome)) << outcome_name(trial.outcome);
}

TEST(Campaign, PostIdFaultEscapesTheMonitor) {
  CampaignRunner runner(checked_loop_program(), monitored_config());
  FaultSpec spec;
  spec.site = FaultSite::kPostIdLatch;
  spec.trigger_index = 3;
  spec.xor_mask = 1U << 16;  // corrupt an immediate: valid instr, wrong value
  const TrialResult trial = runner.run_trial(spec);
  EXPECT_NE(trial.outcome, Outcome::kDetectedMismatch);
  EXPECT_NE(trial.outcome, Outcome::kDetectedMiss);
}

TEST(Campaign, OpcodeDestroyingFlipMayTrapInBaseline) {
  // Flipping high opcode bits usually produces an invalid encoding, which
  // the baseline decode catches (§6.3 credits these).
  cpu::CpuConfig off;
  CampaignRunner runner(checked_loop_program(), off);
  unsigned baseline_detected = 0;
  for (unsigned bit = 26; bit < 32; ++bit) {
    FaultSpec spec;
    spec.site = FaultSite::kMemoryText;
    spec.target_address = casm_::kTextBase + 8;
    spec.xor_mask = 1U << bit;
    if (runner.run_trial(spec).outcome == Outcome::kDetectedBaseline) ++baseline_detected;
  }
  EXPECT_GT(baseline_detected, 0U);
}

TEST(Campaign, UnexecutedFlipIsBenignUnderTheDynamicMonitor) {
  casm_::Asm a;
  a.func("main");
  casm_::Label skip = a.label();
  a.beq(kZero, kZero, skip);
  a.addiu(kT0, kT0, 1);  // never executed
  a.bind(skip);
  a.sys_exit(0);
  CampaignRunner runner(a.finalize(), monitored_config());
  FaultSpec spec;
  spec.site = FaultSite::kMemoryText;
  spec.target_address = casm_::kTextBase + 4;  // the dead instruction
  spec.xor_mask = 0xF;
  EXPECT_EQ(runner.run_trial(spec).outcome, Outcome::kBenign);
}

// §6.3: the XOR checksum detects every odd number of bit flips in an
// executed block — parameterized over flip counts.
class OddFlipGuarantee : public ::testing::TestWithParam<unsigned> {};

TEST_P(OddFlipGuarantee, OddFlipsInOneExecutedWordNeverEscapeTheHash) {
  const unsigned bits = GetParam();
  CampaignRunner runner(checked_loop_program(), monitored_config());
  support::Rng rng(bits);
  for (int trial = 0; trial < 25; ++trial) {
    std::uint32_t mask = 0;
    while (support::popcount32(mask) < bits) mask |= 1U << rng.below(32);
    FaultSpec spec;
    spec.site = FaultSite::kMemoryText;
    spec.target_address = casm_::kTextBase + 8;  // executed every iteration
    spec.xor_mask = mask;
    const TrialResult result = runner.run_trial(spec);
    // The corrupted word may also trap in decode or derail control flow, but
    // it can never complete its block with a matching hash: silent wrong
    // output and benign completion are both impossible.
    EXPECT_NE(result.outcome, Outcome::kBenign) << support::hex32(mask);
    EXPECT_NE(result.outcome, Outcome::kWrongOutput) << support::hex32(mask);
  }
}

INSTANTIATE_TEST_SUITE_P(OddCounts, OddFlipGuarantee, ::testing::Values(1U, 3U, 5U));

TEST(Campaign, RandomCampaignIsDeterministic) {
  CampaignRunner runner(checked_loop_program(), monitored_config());
  const CampaignSummary a = runner.run_random(FaultSite::kFetchBus, 1, 40, 99);
  const CampaignSummary b = runner.run_random(FaultSite::kFetchBus, 1, 40, 99);
  EXPECT_EQ(a.detected_mismatch, b.detected_mismatch);
  EXPECT_EQ(a.benign, b.benign);
  EXPECT_EQ(a.trials, 40U);
}

bool summaries_identical(const CampaignSummary& a, const CampaignSummary& b) {
  return a.trials == b.trials && a.detected_mismatch == b.detected_mismatch &&
         a.detected_miss == b.detected_miss && a.detected_baseline == b.detected_baseline &&
         a.wrong_output == b.wrong_output && a.benign == b.benign && a.hang == b.hang;
}

TEST(Campaign, ParallelCampaignIsBitIdenticalToSerial) {
  // The core contract of the parallel engine: for a given seed, the summary
  // must not depend on the job count — every field, not just the rates.
  CampaignRunner runner(checked_loop_program(), monitored_config());
  const CampaignSummary serial = runner.run_random(FaultSite::kFetchBus, 2, 120, 7, 1);
  for (const unsigned jobs : {2U, 4U, 8U}) {
    const CampaignSummary parallel = runner.run_random(FaultSite::kFetchBus, 2, 120, 7, jobs);
    EXPECT_TRUE(summaries_identical(serial, parallel)) << jobs << " jobs";
  }
}

TEST(Campaign, ParallelDeterminismAcrossSitesOnRealWorkload) {
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  CampaignRunner runner(image, monitored_config());
  for (const FaultSite site :
       {FaultSite::kMemoryText, FaultSite::kFetchBus, FaultSite::kPostIdLatch}) {
    const CampaignSummary serial = runner.run_random(site, 1, 60, 13, 1);
    const CampaignSummary parallel = runner.run_random(site, 1, 60, 13, 4);
    EXPECT_TRUE(summaries_identical(serial, parallel)) << fault_site_name(site);
  }
}

// The campaign programs the engine and checkpoint contracts are checked on:
// bitcount (many short blocks) and dijkstra (the benchmarked campaign, whose
// trials warm-start from a shared translated-block base).
std::vector<std::pair<std::string, casm_::Image>> contract_programs() {
  return {{"bitcount", workloads::build_workload("bitcount", {0.02, 42})},
          {"dijkstra", workloads::build_workload("dijkstra", {0.1, 42})}};
}

// Every trial's cell — its outcome code — in trial order, run on `jobs`
// threads. Comparing these instead of summary counts keeps offsetting
// per-trial differences from hiding.
std::vector<exp::CellResult> trial_cells(const CampaignRunner& runner, FaultSite site,
                                         unsigned jobs = 1) {
  return exp::run_all(runner.sweep(site, 1, 60, 13), jobs);
}

TEST(Campaign, ThreadedEngineDoesNotChangeCampaignResults) {
  // The tamper-safety contract of both engine caches at campaign
  // granularity: across every site that corrupts fetched words (memory
  // rewrites, per-fetch bus flips, post-ID latch faults, cache-resident
  // flips through a live I-cache), the oracle (the switch engine behind its
  // predecode cache) and the threaded engine (fused handlers over chained
  // blocks, every trial an overlay on the campaign's shared block base;
  // every injected fault that lands on a base block must kill it in that
  // trial only and replay through the interpreter) must produce the same
  // outcome trial by trial — also with four trials at a time reading the
  // one base.
  for (const auto& [name, image] : contract_programs()) {
    cpu::CpuConfig interp = monitored_config();
    interp.icache.enabled = true;  // exercise the icache-line site too
    interp.engine = cpu::Engine::kSwitch;
    cpu::CpuConfig threaded = interp;
    threaded.engine = cpu::Engine::kThreaded;
    CampaignRunner a(image, interp);
    CampaignRunner b(image, threaded);
    for (const FaultSite site :
         {FaultSite::kMemoryText, FaultSite::kFetchBus, FaultSite::kPostIdLatch,
          FaultSite::kICacheLine}) {
      const std::vector<exp::CellResult> oracle = trial_cells(a, site);
      EXPECT_EQ(oracle, trial_cells(b, site)) << name << ", " << fault_site_name(site);
      EXPECT_EQ(oracle, trial_cells(b, site, 4))
          << name << ", " << fault_site_name(site) << ", 4 jobs";
    }
  }
}

TEST(Campaign, MonitoredDetectionDominatesUnmonitored) {
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  cpu::CpuConfig on = monitored_config();
  cpu::CpuConfig off;
  CampaignRunner monitored(image, on);
  CampaignRunner plain(image, off);
  const CampaignSummary with_cic = monitored.run_random(FaultSite::kFetchBus, 1, 60, 5);
  const CampaignSummary without = plain.run_random(FaultSite::kFetchBus, 1, 60, 5);
  EXPECT_GT(with_cic.detection_rate_effective(), without.detection_rate_effective());
  EXPECT_GT(with_cic.detection_rate_effective(), 0.9);
}

TEST(Campaign, ICacheResidentFaultCaught) {
  // A realistically sized program, so the final self-check block (whose
  // trap can fire before the block-terminating lookup — the paper's
  // end-of-block detection latency) is a negligible fraction of the code.
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  cpu::CpuConfig config = monitored_config();
  config.icache.enabled = true;
  CampaignRunner runner(image, config);
  const CampaignSummary summary = runner.run_random(FaultSite::kICacheLine, 1, 40, 11);
  // Many flips land in untouched line words (benign); nearly every
  // consequential one is detected in hardware.
  EXPECT_GT(summary.detected(), 0U);
  EXPECT_LE(summary.wrong_output, 2U);
  EXPECT_GT(summary.detected(), summary.wrong_output);
}

TEST(Campaign, CheckpointsDoNotChangeCampaignResults) {
  // The campaign accelerator's core contract: restoring golden-run snapshots
  // (at any stride, including a pathological one) must reproduce the full
  // re-execution outcome of every trial, at every site and on both engines.
  // The memory-text rows also pin down the shared COW image, which
  // checkpoint-off trials read through as well; on the threaded engine each
  // stride seeds its own block base at its snapshots' resume addresses.
  for (const auto& [name, image] : contract_programs()) {
    for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
      cpu::CpuConfig config = monitored_config();
      config.icache.enabled = true;  // exercise the icache-line site too
      config.engine = engine;
      CampaignRunner fast(image, config);  // checkpoints default on, auto stride
      CampaignRunner strided(image, config, {true, 97});
      CampaignRunner slow(image, config, {false, 0});
      ASSERT_TRUE(fast.checkpoints_enabled());
      ASSERT_FALSE(slow.checkpoints_enabled());
      for (const FaultSite site :
           {FaultSite::kMemoryText, FaultSite::kFetchBus, FaultSite::kFetchBusPaired,
            FaultSite::kPostIdLatch, FaultSite::kICacheLine}) {
        const std::string where = name + ", " + std::string(fault_site_name(site)) +
                                  ", engine " + std::string(cpu::engine_name(engine));
        const std::vector<exp::CellResult> a = trial_cells(fast, site);
        EXPECT_EQ(a, trial_cells(strided, site)) << where << " (stride 97)";
        EXPECT_EQ(a, trial_cells(slow, site)) << where << " (checkpoints off)";
        EXPECT_EQ(a, trial_cells(fast, site, 4)) << where << " (4 jobs)";
      }
    }
  }
}

TEST(Campaign, CheckpointAccountingTracksRestores) {
  const casm_::Image image = workloads::build_workload("bitcount", {0.02, 42});
  CampaignRunner fast(image, monitored_config());
  EXPECT_GT(fast.snapshot_count(), 1U);  // snapshot 0 plus at least one more
  EXPECT_GT(fast.checkpoint_stride(), 0U);
  EXPECT_EQ(fast.restores(), 0U);
  fast.run_random(FaultSite::kFetchBus, 1, 40, 7);
  // Triggers are uniform over the golden run, so with snapshots every 1024
  // instructions nearly every trial restores and skips a nonzero prefix.
  EXPECT_GT(fast.restores(), 0U);
  EXPECT_GT(fast.skipped_instructions(), 0U);

  // Memory-text trials strike before instruction 0 — nothing to skip.
  CampaignRunner text(image, monitored_config());
  text.run_random(FaultSite::kMemoryText, 1, 40, 7);
  EXPECT_EQ(text.restores(), 0U);

  CampaignRunner slow(image, monitored_config(), {false, 0});
  slow.run_random(FaultSite::kFetchBus, 1, 40, 7);
  EXPECT_EQ(slow.snapshot_count(), 0U);
  EXPECT_EQ(slow.restores(), 0U);
}

TEST(Campaign, RecoveryModeDisablesCheckpoints) {
  // Recovery keeps in-run block checkpoints the snapshot does not cover, so
  // a recovery campaign silently falls back to full re-execution.
  cpu::CpuConfig config = monitored_config();
  config.recovery.enabled = true;
  CampaignRunner runner(checked_loop_program(), config, {true, 0});
  EXPECT_FALSE(runner.checkpoints_enabled());
  const TrialResult trial = runner.run_trial([] {
    FaultSpec spec;
    spec.site = FaultSite::kPostIdLatch;
    spec.trigger_index = 5;
    spec.xor_mask = 1U << 3;
    return spec;
  }());
  EXPECT_EQ(runner.restores(), 0U);
  (void)trial;  // the point is that the trial runs at all under recovery
}

// --- Golden recording on the fast path ---------------------------------------

// The schedule a CheckpointedGolden at resolved stride `stride` must hold,
// recorded independently by single-stepping the interpreter: the
// pre-execution state, then a snapshot at every multiple of `stride`
// retired instructions. Its last element is the final result.
std::pair<std::vector<cpu::Snapshot>, cpu::RunResult> stepped_recording(
    const cpu::CpuConfig& config, const casm_::Image& image, const cpu::LoadedImage& loaded,
    std::uint64_t stride) {
  cpu::Cpu cpu(config, image, &loaded);
  std::vector<cpu::Snapshot> snapshots(1);
  cpu.save_snapshot(&snapshots.back());
  std::optional<cpu::RunResult> done;
  while (!(done = cpu.step()).has_value()) {
    if (cpu.instructions_retired() % stride != 0) continue;
    snapshots.emplace_back();
    cpu.save_snapshot(&snapshots.back());
  }
  return {std::move(snapshots), *done};
}

GoldenState golden_state(const cpu::LoadedImage& loaded, std::vector<cpu::Snapshot> snapshots,
                         std::uint64_t stride, cpu::RunResult result) {
  GoldenState state;
  state.image_pages = *loaded.pages;
  state.fht_blob = loaded.fht.serialize();
  state.fht_was_attached = loaded.fht_was_attached;
  state.entry = loaded.entry;
  state.snapshots = std::move(snapshots);
  state.stride = stride;
  state.result = std::move(result);
  return state;
}

// `golden` must hold exactly the stepped schedule at its resolved stride,
// snapshot by snapshot, and serialize to the same bytes.
void expect_stepped_recording(const CheckpointedGolden& golden, const cpu::CpuConfig& config,
                              const casm_::Image& image, const cpu::LoadedImage& loaded) {
  auto [stepped, result] = stepped_recording(config, image, loaded, golden.stride());
  EXPECT_EQ(golden.result(), result);
  ASSERT_EQ(golden.snapshot_count(), stepped.size());
  for (std::size_t i = 0; i < stepped.size(); ++i) {
    EXPECT_EQ(golden.snapshots()[i], stepped[i]) << "snapshot " << i;
  }
  const std::string key = golden_key({{"test", "fast-recording"}});
  EXPECT_EQ(encode_golden(golden_state(loaded, golden.snapshots(), golden.stride(),
                                       golden.result()),
                          key),
            encode_golden(golden_state(loaded, std::move(stepped), golden.stride(),
                                       std::move(result)),
                          key));
}

TEST(Golden, FastRecordingEqualsSteppedRecording) {
  // CheckpointedGolden pauses the configured engine at each due boundary
  // with run_until; every snapshot must equal what single-stepping leaves
  // there, on both engines, or golden blobs and cache files would change.
  cpu::CpuConfig cic16 = monitored_config();
  cic16.cic.iht_entries = 16;
  cpu::CpuConfig cic16_icache = cic16;
  cic16_icache.icache.enabled = true;
  const std::pair<const char*, cpu::CpuConfig> machines[] = {
      {"baseline", cpu::CpuConfig{}}, {"CIC16", cic16}, {"CIC16+I-cache", cic16_icache}};
  const std::pair<const char*, std::uint64_t> schedules[] = {{"auto", 0}, {"stride 97", 97}};
  for (const char* name : {"bitcount", "dijkstra", "sha"}) {
    const casm_::Image image = workloads::build_workload(name, {0.02, 42});
    for (const auto& [machine, base] : machines) {
      for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
        cpu::CpuConfig config = base;
        config.engine = engine;
        const cpu::LoadedImage loaded = cpu::preload_image(config, image);
        for (const auto& [schedule, stride] : schedules) {
          SCOPED_TRACE(std::string(name) + ", " + machine + ", " +
                       std::string(cpu::engine_name(engine)) + ", " + schedule);
          expect_stepped_recording(CheckpointedGolden(config, image, loaded, stride), config,
                                   image, loaded);
        }
      }
    }
  }

  cpu::CpuConfig config = cic16;
  config.engine = cpu::Engine::kThreaded;
  {
    // stringsearch runs past kAutoMaxSnapshots initial strides, so the auto
    // schedule doubles its stride and thins mid-recording.
    SCOPED_TRACE("stringsearch, auto-thinned");
    const casm_::Image image = workloads::build_workload("stringsearch", {0.01, 42});
    const cpu::LoadedImage loaded = cpu::preload_image(config, image);
    const CheckpointedGolden golden(config, image, loaded, 0);
    EXPECT_GT(golden.stride(), CheckpointedGolden::kAutoInitialStride);
    expect_stepped_recording(golden, config, image, loaded);
  }
  {
    // A campaign without the I-cache records the I-cache golden lazily, on
    // the first icache-line trial, through a LoadedImage whose translated-
    // block base is already built (seeded as CampaignRunner seeds it), so
    // the recording machine starts warm.
    SCOPED_TRACE("dijkstra, lazy I-cache recording over a block base");
    const casm_::Image image = workloads::build_workload("dijkstra", {0.1, 42});
    cpu::LoadedImage loaded = cpu::preload_image(config, image);
    const CheckpointedGolden main(config, image, loaded, 0);
    std::vector<std::uint32_t> seeds = {loaded.entry};
    for (const cpu::Snapshot& snapshot : main.snapshots()) {
      seeds.push_back(snapshot.special[static_cast<std::size_t>(uop::SpecialReg::kCpc)]);
    }
    cpu::build_block_base(config, image, seeds, &loaded);
    ASSERT_NE(loaded.blocks, nullptr);
    cpu::CpuConfig icache = config;
    icache.icache.enabled = true;
    expect_stepped_recording(CheckpointedGolden(icache, image, loaded, 0), icache, image,
                             loaded);
  }
}

TEST(Names, SitesAndOutcomes) {
  EXPECT_EQ(fault_site_name(FaultSite::kMemoryText), "memory-text");
  EXPECT_EQ(fault_site_name(FaultSite::kPostIdLatch), "post-id-latch");
  EXPECT_EQ(outcome_name(Outcome::kBenign), "benign");
  EXPECT_EQ(outcome_name(Outcome::kDetectedMismatch), "detected-mismatch");
}

TEST(Summary, RatesComputed) {
  CampaignSummary s;
  s.add(Outcome::kDetectedMismatch);
  s.add(Outcome::kBenign);
  s.add(Outcome::kWrongOutput);
  EXPECT_EQ(s.trials, 3U);
  EXPECT_DOUBLE_EQ(s.detection_rate_effective(), 0.5);
  EXPECT_NEAR(s.detection_rate_total(), 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace cicmon::fault
