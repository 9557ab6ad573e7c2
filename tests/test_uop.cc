// Microoperation-layer tests: canonical programs, the monitoring-embedding
// pass (Figures 3 and 4), paper-notation rendering, and the interpreter.
#include <gtest/gtest.h>

#include <array>
#include <optional>

#include "casm/builder.h"
#include "cpu/cpu.h"
#include "cpu/snapshot.h"
#include "exp/sweep.h"
#include "fault/campaign.h"
#include "hash/hash_unit.h"
#include "isa/instruction.h"
#include "mem/fetch_path.h"
#include "support/error.h"
#include "support/rng.h"
#include "uop/interp.h"
#include "uop/monitor_pass.h"
#include "uop/threaded.h"
#include "uop/translate_cache.h"
#include "uop/uop.h"
#include "workloads/workloads.h"

namespace cicmon::uop {
namespace {

unsigned count_kind(const std::vector<Uop>& ops, UopKind kind) {
  unsigned n = 0;
  for (const Uop& op : ops) n += op.kind == kind ? 1 : 0;
  return n;
}

TEST(UopBuild, FetchProgramMatchesFigure1) {
  const IsaUopSpec spec = build_isa_uops();
  // CPC.read, IMAU.read, IReg.write, const4, add, CPC.write.
  ASSERT_EQ(spec.fetch.size(), 6U);
  EXPECT_EQ(spec.fetch[0].kind, UopKind::kReadSpecial);
  EXPECT_EQ(spec.fetch[0].special, SpecialReg::kCpc);
  EXPECT_EQ(spec.fetch[1].kind, UopKind::kFetchInstr);
  EXPECT_EQ(spec.fetch[2].kind, UopKind::kWriteSpecial);
  EXPECT_EQ(spec.fetch[2].special, SpecialReg::kIReg);
  EXPECT_FALSE(spec.monitoring_embedded);
}

TEST(UopBuild, EveryInstructionHasAProgram) {
  const IsaUopSpec spec = build_isa_uops();
  for (const isa::OpcodeInfo& row : isa::opcode_table()) {
    if (row.mnemonic == isa::Mnemonic::kInvalid) continue;
    EXPECT_FALSE(spec.program(row.mnemonic).ops.empty()) << row.name;
  }
}

TEST(UopBuild, FlowControlEndsWithSetPc) {
  const IsaUopSpec spec = build_isa_uops();
  for (const isa::OpcodeInfo& row : isa::opcode_table()) {
    if (row.mnemonic == isa::Mnemonic::kInvalid || !isa::is_flow_control(row.cls)) continue;
    EXPECT_EQ(count_kind(spec.program(row.mnemonic).ops, UopKind::kSetPc), 1U) << row.name;
  }
}

TEST(MonitorPass, ExtendsFetchWithFigure3b) {
  IsaUopSpec spec = build_isa_uops();
  const std::size_t before = spec.fetch.size();
  embed_monitoring(&spec);
  EXPECT_TRUE(spec.monitoring_embedded);
  ASSERT_EQ(spec.fetch.size(), before + 5);  // STA.read, guarded STA.write, RHASH.read, hash, RHASH.write
  EXPECT_EQ(count_kind(spec.fetch, UopKind::kHashStep), 1U);
  // The STA write must be guarded on start==0 (conditional microoperation).
  bool guarded_sta_write = false;
  for (const Uop& op : spec.fetch) {
    if (op.kind == UopKind::kWriteSpecial && op.special == SpecialReg::kSta) {
      guarded_sta_write = op.guard == GuardKind::kIfZero;
    }
  }
  EXPECT_TRUE(guarded_sta_write);
}

TEST(MonitorPass, OnlyFlowControlIdExtended) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  for (const isa::OpcodeInfo& row : isa::opcode_table()) {
    if (row.mnemonic == isa::Mnemonic::kInvalid) continue;
    const unsigned lookups = count_kind(spec.program(row.mnemonic).ops, UopKind::kIhtLookup);
    const unsigned excs = count_kind(spec.program(row.mnemonic).ops, UopKind::kRaiseExc);
    if (isa::is_flow_control(row.cls)) {
      EXPECT_EQ(lookups, 1U) << row.name;
      EXPECT_EQ(excs, 2U) << row.name;  // exception0 and exception1
    } else {
      EXPECT_EQ(lookups, 0U) << row.name;
      EXPECT_EQ(excs, 0U) << row.name;
    }
  }
}

TEST(MonitorPass, MonitoringOpsAreTagged) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  unsigned tagged = 0;
  for (const Uop& op : spec.fetch) tagged += op.monitoring ? 1 : 0;
  EXPECT_EQ(tagged, 5U);
}

TEST(MonitorPass, RejectsDoubleEmbedding) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  EXPECT_THROW(embed_monitoring(&spec), support::CicError);
  EXPECT_THROW(embed_monitoring(nullptr), support::CicError);
}

TEST(MonitorPass, IdExtensionPrependsBeforeSetPc) {
  // Figure 4: the lookup/reset run before the control transfer executes.
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  const auto& ops = spec.program(isa::Mnemonic::kJr).ops;
  std::size_t lookup_at = ops.size(), setpc_at = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == UopKind::kIhtLookup) lookup_at = i;
    if (ops[i].kind == UopKind::kSetPc) setpc_at = i;
  }
  EXPECT_LT(lookup_at, setpc_at);
}

TEST(UopBuild, StageSlicesPartitionEveryProgram) {
  // The slices must cover the stage-sorted ops vector exactly, and every op
  // must sit in the slice of its own stage tag — for both the canonical and
  // the monitored spec.
  for (const bool monitored : {false, true}) {
    IsaUopSpec spec = build_isa_uops();
    if (monitored) embed_monitoring(&spec);
    for (const isa::OpcodeInfo& row : isa::opcode_table()) {
      const InstrUops& prog = spec.program(row.mnemonic);
      std::size_t covered = 0;
      for (unsigned s = 0; s < kNumStages; ++s) {
        for (const Uop& op : prog.stage(static_cast<Stage>(s))) {
          EXPECT_EQ(op.stage, static_cast<Stage>(s)) << row.name;
          ++covered;
        }
      }
      EXPECT_EQ(covered, prog.ops.size()) << row.name;
    }
  }
}

TEST(UopBuild, StageSliceMatchesStageFilter) {
  // The contiguous slice and the old stage-tag filter must agree on both
  // membership and order (the execution-order contract of the refactor).
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  for (const isa::OpcodeInfo& row : isa::opcode_table()) {
    const InstrUops& prog = spec.program(row.mnemonic);
    for (unsigned s = 0; s < kNumStages; ++s) {
      std::vector<UopKind> filtered;
      for (const Uop& op : prog.ops) {
        if (op.stage == static_cast<Stage>(s)) filtered.push_back(op.kind);
      }
      std::vector<UopKind> sliced;
      for (const Uop& op : prog.stage(static_cast<Stage>(s))) sliced.push_back(op.kind);
      EXPECT_EQ(filtered, sliced) << row.name << " stage " << s;
    }
  }
}

TEST(UopBuild, IhtLookupUsesSrcC) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  for (const Uop& op : spec.program(isa::Mnemonic::kJr).ops) {
    if (op.kind != UopKind::kIhtLookup) continue;
    EXPECT_NE(op.src_c, kNoTemp);
    EXPECT_EQ(op.src_c, MonitorTemps::kHashV);
    return;
  }
  FAIL() << "jr has no IHT lookup after embedding";
}

InstrUops malformed_single(Uop op) {
  InstrUops prog;
  prog.ops.push_back(op);
  finalize_program(&prog);
  return prog;
}

TEST(UopValidate, RejectsGuardWithoutGuardTmp) {
  IsaUopSpec spec = build_isa_uops();
  Uop op;
  op.kind = UopKind::kRaiseExc;
  op.stage = Stage::kID;
  op.guard = GuardKind::kIfZero;  // guard_tmp left at kNoTemp
  spec.per_instr[0] = malformed_single(op);
  EXPECT_THROW(validate_spec(spec), support::CicError);
}

TEST(UopValidate, RejectsOutOfRangeTempIndex) {
  IsaUopSpec spec = build_isa_uops();
  Uop op;
  op.kind = UopKind::kAlu;
  op.stage = Stage::kEX;
  op.dst = kMaxTemps;  // one past the temp file
  op.src_a = 0;        // defined by the fetch program
  spec.per_instr[0] = malformed_single(op);
  EXPECT_THROW(validate_spec(spec), support::CicError);
}

TEST(UopValidate, RejectsTempReadBeforeWritten) {
  IsaUopSpec spec = build_isa_uops();
  Uop op;
  op.kind = UopKind::kWriteGpr;
  op.stage = Stage::kWB;
  op.sel = GprSel::kRd;
  op.src_a = 12;  // never written by fetch or this program
  spec.per_instr[0] = malformed_single(op);
  EXPECT_THROW(validate_spec(spec), support::CicError);
}

TEST(UopValidate, RejectsMissingRequiredOperand) {
  IsaUopSpec spec = build_isa_uops();
  Uop op;
  op.kind = UopKind::kLoad;  // needs dst and src_a, has neither
  op.stage = Stage::kMEM;
  spec.per_instr[0] = malformed_single(op);
  EXPECT_THROW(validate_spec(spec), support::CicError);
}

TEST(UopValidate, AcceptsCanonicalAndMonitoredSpecs) {
  IsaUopSpec spec = build_isa_uops();
  EXPECT_NO_THROW(validate_spec(spec));
  embed_monitoring(&spec);
  EXPECT_NO_THROW(validate_spec(spec));
}

TEST(UopPrint, PaperNotation) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  const std::string fetch_text = dump_stage(spec.fetch, Stage::kIF);
  // The paper's conditional-microoperation syntax of Figure 3(b).
  EXPECT_NE(fetch_text.find("[start==0]"), std::string::npos) << fetch_text;
  EXPECT_NE(fetch_text.find("HASHFU"), std::string::npos);
  EXPECT_NE(fetch_text.find("RHASH"), std::string::npos);
}

TEST(Interp, AluEvalBasics) {
  EXPECT_EQ(alu_eval(AluOp::kAdd, 2, 3), 5U);
  EXPECT_EQ(alu_eval(AluOp::kSub, 2, 3), 0xFFFFFFFFU);
  EXPECT_EQ(alu_eval(AluOp::kSra, 0x80000000, 31), 0xFFFFFFFFU);
  EXPECT_EQ(alu_eval(AluOp::kSrl, 0x80000000, 31), 1U);
  EXPECT_EQ(alu_eval(AluOp::kSltSigned, 0xFFFFFFFF, 0), 1U);   // -1 < 0
  EXPECT_EQ(alu_eval(AluOp::kSltUnsigned, 0xFFFFFFFF, 0), 0U); // big > 0
  EXPECT_EQ(alu_eval(AluOp::kNor, 0, 0), 0xFFFFFFFFU);
  EXPECT_EQ(alu_eval(AluOp::kCmpLtZ, 0x80000000, 0), 1U);
  EXPECT_EQ(alu_eval(AluOp::kCmpGeZ, 0, 0), 1U);
}

TEST(Interp, MulDivEval) {
  HiLo r = muldiv_eval(MulDivOp::kMult, 0xFFFFFFFF, 2);  // -1 * 2
  EXPECT_EQ(r.lo, 0xFFFFFFFEU);
  EXPECT_EQ(r.hi, 0xFFFFFFFFU);
  r = muldiv_eval(MulDivOp::kMultu, 0xFFFFFFFF, 2);
  EXPECT_EQ(r.lo, 0xFFFFFFFEU);
  EXPECT_EQ(r.hi, 1U);
  r = muldiv_eval(MulDivOp::kDiv, 7, static_cast<std::uint32_t>(-2));
  EXPECT_EQ(static_cast<std::int32_t>(r.lo), -3);
  EXPECT_EQ(static_cast<std::int32_t>(r.hi), 1);
  r = muldiv_eval(MulDivOp::kDivu, 7, 2);
  EXPECT_EQ(r.lo, 3U);
  EXPECT_EQ(r.hi, 1U);
}

TEST(Interp, DivByZeroIsDeterministic) {
  const HiLo r = muldiv_eval(MulDivOp::kDivu, 42, 0);
  EXPECT_EQ(r.lo, 0xFFFFFFFFU);
  EXPECT_EQ(r.hi, 42U);
  const HiLo s = muldiv_eval(MulDivOp::kDiv, 42, 0);
  EXPECT_EQ(s.lo, 0xFFFFFFFFU);
  EXPECT_EQ(s.hi, 42U);
}

TEST(Interp, DivOverflowWraps) {
  const HiLo r = muldiv_eval(MulDivOp::kDiv, 0x80000000, static_cast<std::uint32_t>(-1));
  EXPECT_EQ(r.lo, 0x80000000U);
  EXPECT_EQ(r.hi, 0U);
}

// Minimal datapath that records microoperation effects.
class RecordingDatapath : public Datapath {
 public:
  std::uint32_t read_special(SpecialReg r) override {
    return specials[static_cast<int>(r)];
  }
  void write_special(SpecialReg r, std::uint32_t v) override {
    specials[static_cast<int>(r)] = v;
  }
  std::uint32_t read_gpr(unsigned i) override { return gpr[i]; }
  void write_gpr(unsigned i, std::uint32_t v) override { gpr[i] = v; }
  std::uint32_t fetch_instr(std::uint32_t) override { return fetched_word; }
  std::uint32_t load(std::uint32_t, MemWidth, bool) override { return 0; }
  void store(std::uint32_t, MemWidth, std::uint32_t) override {}
  std::uint32_t hash_step(std::uint32_t h, std::uint32_t w) override { return h ^ w; }
  IhtLookupResult iht_lookup(std::uint32_t, std::uint32_t, std::uint32_t) override {
    ++lookups;
    return lookup_result;
  }
  void raise_monitor_exception(std::uint8_t code) override { exceptions.push_back(code); }
  void set_pc(std::uint32_t t) override { specials[static_cast<int>(SpecialReg::kCpc)] = t; }
  void syscall() override {}
  void illegal_instruction() override { ++illegals; }

  std::uint32_t specials[8]{};
  std::uint32_t gpr[32]{};
  std::uint32_t fetched_word = 0;
  IhtLookupResult lookup_result;
  std::vector<std::uint8_t> exceptions;
  unsigned lookups = 0;
  unsigned illegals = 0;
};

TEST(Interp, MonitoredFetchAccumulatesHash) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  RecordingDatapath dp;
  dp.specials[static_cast<int>(SpecialReg::kCpc)] = 0x00400000;
  dp.fetched_word = 0xAAAA5555;

  ExecContext ctx;
  ctx.instr_addr = 0x00400000;
  execute_stage(spec.fetch, Stage::kIF, ctx, dp);

  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kSta)], 0x00400000U);  // latched
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kRhash)], 0xAAAA5555U);
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kCpc)], 0x00400004U);

  // Second fetch: STA stays (guard fails), hash folds.
  dp.fetched_word = 0x0000FFFF;
  ExecContext ctx2;
  ctx2.instr_addr = 0x00400004;
  execute_stage(spec.fetch, Stage::kIF, ctx2, dp);
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kSta)], 0x00400000U);
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kRhash)], 0xAAAA5555U ^ 0x0000FFFFU);
}

TEST(Interp, IdExtensionRaisesMissAndResets) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  RecordingDatapath dp;
  dp.specials[static_cast<int>(SpecialReg::kSta)] = 0x00400000;
  dp.specials[static_cast<int>(SpecialReg::kPpc)] = 0x00400010;
  dp.specials[static_cast<int>(SpecialReg::kRhash)] = 0x12345678;
  dp.lookup_result = {false, false};

  ExecContext ctx;
  ctx.instr = isa::decode(isa::encode_r(isa::Mnemonic::kJr, 0, 31, 0));
  ctx.instr_addr = 0x00400010;
  execute_stage(spec.program(isa::Mnemonic::kJr).ops, Stage::kID, ctx, dp);

  EXPECT_EQ(dp.lookups, 1U);
  ASSERT_EQ(dp.exceptions.size(), 1U);
  EXPECT_EQ(dp.exceptions[0], kExcHashMiss);
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kSta)], 0U);    // reset
  EXPECT_EQ(dp.specials[static_cast<int>(SpecialReg::kRhash)], 0U);  // reset
}

TEST(Interp, IdExtensionRaisesMismatchOnlyWhenFoundAndHashDiffers) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  for (const bool match : {true, false}) {
    RecordingDatapath dp;
    dp.lookup_result = {true, match};
    ExecContext ctx;
    ctx.instr = isa::decode(isa::encode_r(isa::Mnemonic::kJr, 0, 31, 0));
    execute_stage(spec.program(isa::Mnemonic::kJr).ops, Stage::kID, ctx, dp);
    if (match) {
      EXPECT_TRUE(dp.exceptions.empty());
    } else {
      ASSERT_EQ(dp.exceptions.size(), 1U);
      EXPECT_EQ(dp.exceptions[0], kExcHashMismatch);
    }
  }
}

TEST(Interp, UnmonitoredSpecNeverTouchesMonitorPorts) {
  const IsaUopSpec spec = build_isa_uops();
  RecordingDatapath dp;
  dp.specials[static_cast<int>(SpecialReg::kCpc)] = 0x00400000;
  ExecContext ctx;
  execute_stage(spec.fetch, Stage::kIF, ctx, dp);
  ctx.instr = isa::decode(isa::encode_i(isa::Mnemonic::kBeq, 0, 0, 4));
  for (Stage s : {Stage::kID, Stage::kEX, Stage::kMEM, Stage::kWB}) {
    execute_stage(spec.program(ctx.instr.mnemonic).ops, s, ctx, dp);
  }
  EXPECT_EQ(dp.lookups, 0U);
  EXPECT_TRUE(dp.exceptions.empty());
}

// --- Threaded engine: fused classification --------------------------------

TEST(FusedClassifier, EveryMnemonicFusesNonGeneric) {
  // Every canonical builder program — monitored or not — must match a fused
  // shape: a kGeneric here means the classifier and the builder drifted apart
  // and the threaded engine silently forfeits its speedup for that mnemonic.
  for (const bool monitored : {false, true}) {
    IsaUopSpec spec = build_isa_uops();
    if (monitored) embed_monitoring(&spec);
    const FusedTable table = build_fused_table(spec);
    for (const isa::OpcodeInfo& row : isa::opcode_table()) {
      if (row.mnemonic == isa::Mnemonic::kInvalid) continue;
      EXPECT_NE(table[static_cast<std::size_t>(row.mnemonic)].kind, FusedKind::kGeneric)
          << row.name << (monitored ? " (monitored)" : " (unmonitored)");
    }
    // The illegal-trap program of the invalid word terminates blocks.
    EXPECT_EQ(table[static_cast<std::size_t>(isa::Mnemonic::kInvalid)].kind,
              FusedKind::kIllegal);
  }
}

TEST(FusedClassifier, MonitorHeadRecognizedExactly) {
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  const auto id = spec.program(isa::Mnemonic::kJ).stage(Stage::kID);
  ASSERT_GE(id.size(), 11U);
  EXPECT_TRUE(is_monitor_head(id.first(11)));
  EXPECT_FALSE(is_monitor_head(id.first(10)));   // truncated head
  EXPECT_FALSE(is_monitor_head(id.subspan(1)));  // misaligned head
}

TEST(FusedClassifier, FlowControlWithoutMonitoringHeadIsGeneric) {
  // When monitoring is embedded, a flow-control program that lacks the
  // Figure-4 head must not fuse: the handler would skip the block-end check.
  const IsaUopSpec plain = build_isa_uops();
  const FusedOp op = classify_program(plain.program(isa::Mnemonic::kJ),
                                      isa::info(isa::Mnemonic::kJ).cls,
                                      /*monitoring_embedded=*/true);
  EXPECT_EQ(op.kind, FusedKind::kGeneric);
}

TEST(FusedClassifier, MutatedProgramFallsBackToGeneric) {
  // Any deviation from the verified canonical shape — here an extra ID-stage
  // microoperation — must classify kGeneric and run through the interpreter.
  const IsaUopSpec spec = build_isa_uops();
  InstrUops prog = spec.program(isa::Mnemonic::kAddu);
  Uop extra;
  extra.kind = UopKind::kReadSpecial;
  extra.special = SpecialReg::kCpc;
  extra.stage = Stage::kID;
  extra.dst = 4;
  prog.ops.push_back(extra);
  finalize_program(&prog);
  const FusedOp op = classify_program(prog, isa::info(isa::Mnemonic::kAddu).cls,
                                      /*monitoring_embedded=*/false);
  EXPECT_EQ(op.kind, FusedKind::kGeneric);
}

// --- Threaded engine: translation-cache tamper safety ----------------------
//
// Mirrors the PredecodeCache.* suite one level up: the block-level
// translation cache is keyed by per-entry word tags, so any divergence
// between the translated word and the word the pipeline actually carries
// (bus tamper, memory rewrite, post-ID latch fault) must invalidate the
// block, fall back to the interpreter for that instruction, and leave every
// observable result bit-identical with the switch engine.

casm_::Image checked_sum_loop() {
  casm_::Asm a;
  a.func("main");
  a.li(isa::kT0, 20);
  a.li(isa::kT1, 0);
  casm_::Label loop = a.bound_label();
  a.addu(isa::kT1, isa::kT1, isa::kT0);
  a.addiu(isa::kT0, isa::kT0, -1);
  a.bnez(isa::kT0, loop);
  a.check_eq(isa::kT1, 210);
  a.sys_exit(0);
  return a.finalize();
}

cpu::CpuConfig engine_config(cpu::Engine engine) {
  cpu::CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 8;
  config.engine = engine;
  return config;
}

// Every observable field the experiment layers consume.
void expect_runs_identical(const cpu::RunResult& a, const cpu::RunResult& b) {
  EXPECT_EQ(a.reason, b.reason);
  EXPECT_EQ(a.exit_code, b.exit_code);
  EXPECT_EQ(a.monitor_cause, b.monitor_cause);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.monitor_cycles, b.monitor_cycles);
  EXPECT_EQ(a.branch_bubbles, b.branch_bubbles);
  EXPECT_EQ(a.load_use_stalls, b.load_use_stalls);
  EXPECT_EQ(a.muldiv_stalls, b.muldiv_stalls);
  EXPECT_EQ(a.icache_stall_cycles, b.icache_stall_cycles);
  EXPECT_EQ(a.recoveries, b.recoveries);
  EXPECT_EQ(a.iht.lookups, b.iht.lookups);
  EXPECT_EQ(a.iht.hits, b.iht.hits);
  EXPECT_EQ(a.iht.misses, b.iht.misses);
  EXPECT_EQ(a.iht.mismatches, b.iht.mismatches);
  EXPECT_EQ(a.os.miss_exceptions, b.os.miss_exceptions);
  EXPECT_EQ(a.os.mismatch_exceptions, b.os.mismatch_exceptions);
  EXPECT_EQ(a.os.refills, b.os.refills);
  EXPECT_EQ(a.os.records_loaded, b.os.records_loaded);
  EXPECT_EQ(a.os.fht_probes, b.os.fht_probes);
  EXPECT_EQ(a.os.cycles_charged, b.os.cycles_charged);
  EXPECT_EQ(a.console, b.console);
  EXPECT_EQ(a.check_observed, b.check_observed);
  EXPECT_EQ(a.check_expected, b.check_expected);
}

// Bus tamper that corrupts one specific dynamic fetch — the translated
// block (and any cache-resident copy) saw the clean word.
class OneShotTamper : public mem::BusTamper {
 public:
  OneShotTamper(std::uint64_t trigger, std::uint32_t mask)
      : trigger_(trigger), mask_(mask) {}
  std::uint32_t on_transfer(std::uint32_t, std::uint32_t word) override {
    return transfers_++ == trigger_ ? word ^ mask_ : word;
  }

 private:
  std::uint64_t transfers_ = 0;
  std::uint64_t trigger_;
  std::uint32_t mask_;
};

TEST(TranslationCache, CleanRunIdenticalAcrossEngines) {
  const casm_::Image image = checked_sum_loop();
  cpu::Cpu interp(engine_config(cpu::Engine::kSwitch), image);
  cpu::Cpu cached(engine_config(cpu::Engine::kThreaded), image);
  expect_runs_identical(interp.run(), cached.run());
  // The loop re-enters its block: it translates once and is reached through
  // the cache or its chain link thereafter.
  ASSERT_NE(cached.translation_cache(), nullptr);
  EXPECT_GT(cached.translation_cache()->stats().translations, 0U);
  EXPECT_GT(cached.translation_cache()->stats().hits, 0U);
  EXPECT_EQ(cached.translation_cache()->stats().invalidations, 0U);
  EXPECT_EQ(interp.translation_cache(), nullptr);
}

TEST(TranslationCache, BusTamperMidRunInvalidatesAndMatchesInterpreter) {
  // The tampered word arrives at an address whose translated block already
  // carries the clean tag: the mismatch must invalidate the block, execute
  // the corrupted word through the interpreter, and be detected exactly as
  // on the switch engine.
  const casm_::Image image = checked_sum_loop();
  cpu::RunResult results[2];
  const cpu::CpuConfig configs[2] = {engine_config(cpu::Engine::kSwitch),
                                     engine_config(cpu::Engine::kThreaded)};
  for (int i = 0; i < 2; ++i) {
    cpu::Cpu cpu(configs[i], image);
    OneShotTamper tamper(/*trigger=*/9, /*mask=*/1U << 11);  // mid-loop fetch
    cpu.fetch_path().set_bus_tamper(&tamper);
    results[i] = cpu.run();
    if (cpu.translation_cache() != nullptr) {
      EXPECT_GE(cpu.translation_cache()->stats().invalidations, 1U);
    }
    if (i == 1) {
      // By transfer 9 the loop block is chained (its predecessor's taken
      // edge and its own self-loop): invalidation must sever those links.
      EXPECT_GE(cpu.translation_cache()->stats().chain_severed, 2U);
    }
  }
  EXPECT_EQ(results[0].reason, cpu::ExitReason::kMonitorTerminated);
  expect_runs_identical(results[0], results[1]);
}

TEST(TranslationCache, TextRewriteDetectionIdenticalAcrossEngines) {
  // A rewritten text word: translation picks up the corrupted word (the tag
  // matches what the pipeline fetches), and the monitored detection — the
  // hash mismatch at block end — lands exactly like the interpreter's.
  const casm_::Image image = checked_sum_loop();
  cpu::RunResult results[2];
  const cpu::CpuConfig configs[2] = {engine_config(cpu::Engine::kSwitch),
                                     engine_config(cpu::Engine::kThreaded)};
  for (int i = 0; i < 2; ++i) {
    cpu::Cpu cpu(configs[i], image);
    const std::uint32_t addr = casm_::kTextBase + 8;
    cpu.memory().write32(addr, cpu.memory().read32(addr) ^ (1U << 11));
    results[i] = cpu.run();
  }
  EXPECT_EQ(results[0].reason, cpu::ExitReason::kMonitorTerminated);
  expect_runs_identical(results[0], results[1]);
}

TEST(TranslationCache, ICacheResidentFlipMidRunIdenticalAcrossEngines) {
  // Warm the I-cache with a few interpreter steps, flip resident bits with a
  // fixed-seed RNG (same cache state in every configuration, so the same
  // bits flip), then hand the rest of the run to the configured engine: the
  // poisoned line's words diverge from the translation tags at fetch time
  // and must be handled exactly like the interpreter handles them.
  const casm_::Image image = checked_sum_loop();
  cpu::RunResult results[2];
  cpu::CpuConfig configs[2] = {engine_config(cpu::Engine::kSwitch),
                               engine_config(cpu::Engine::kThreaded)};
  for (int i = 0; i < 2; ++i) {
    configs[i].icache.enabled = true;
    cpu::Cpu cpu(configs[i], image);
    for (int s = 0; s < 8; ++s) cpu.step();
    ASSERT_NE(cpu.fetch_path().icache(), nullptr);
    support::Rng rng(99);
    for (int flip = 0; flip < 3; ++flip) {
      cpu.fetch_path().icache()->flip_random_resident_bit(rng);
    }
    results[i] = cpu.run();
  }
  EXPECT_NE(results[0].reason, cpu::ExitReason::kExit);  // the flips bite
  expect_runs_identical(results[0], results[1]);
}

TEST(TranslationCache, PostIdFaultIdenticalAcrossEngines) {
  // The post-ID XOR rewrites the word after the hash saw it. The translated
  // tag holds the clean word, so the fused handler must miss, fall back, and
  // reproduce the (undetected) wrong-output outcome of §3.2 bit for bit.
  const casm_::Image image = checked_sum_loop();
  cpu::RunResult results[2];
  const cpu::CpuConfig configs[2] = {engine_config(cpu::Engine::kSwitch),
                                     engine_config(cpu::Engine::kThreaded)};
  for (int i = 0; i < 2; ++i) {
    cpu::Cpu cpu(configs[i], image);
    cpu.set_post_id_fault({4, 1U << 16});
    results[i] = cpu.run();
    if (cpu.translation_cache() != nullptr) {
      EXPECT_GE(cpu.translation_cache()->stats().invalidations, 1U);
    }
  }
  EXPECT_EQ(results[0].iht.mismatches, 0U);  // escaped the monitor (§3.2)
  expect_runs_identical(results[0], results[1]);
}

// --- Superblock chaining ----------------------------------------------------

TEST(TranslationCache, ChainedRunMatchesInterpreterAndFollowsLinks) {
  // The loop's bnez links to its own block once and every later iteration
  // flows straight through, skipping the dispatch loop and its cache lookup;
  // the run must stay byte-identical with the interpreter.
  const casm_::Image image = checked_sum_loop();
  cpu::Cpu interp(engine_config(cpu::Engine::kSwitch), image);
  cpu::Cpu chained(engine_config(cpu::Engine::kThreaded), image);
  expect_runs_identical(interp.run(), chained.run());
  EXPECT_GT(chained.chain_follows(), 0U);
  // After the link is installed, iterations follow it instead of paying a
  // dispatch-loop cache lookup.
  const TranslationCache::Stats& stats = chained.translation_cache()->stats();
  EXPECT_GT(chained.chain_follows(), stats.hits);
  EXPECT_EQ(stats.chain_severed, 0U);
}

TEST(TranslationCache, InvalidateSeversInboundAndOutboundLinks) {
  // Cache-level check of the severing invariant: links installed by chain()
  // must be cut from both endpoints when either block invalidates — a stale
  // pointer into retranslated text would be a correctness bug.
  const IsaUopSpec spec = build_isa_uops();
  const FusedTable fused = build_fused_table(spec);
  const std::uint32_t base = 0x00400000;
  const std::uint32_t words[3] = {
      isa::encode_i(isa::Mnemonic::kBeq, 0, 0, 1),   // taken base+8, fall base+4
      isa::encode_r(isa::Mnemonic::kJr, 0, 31, 0),   // indirect: no static edges
      isa::encode_r(isa::Mnemonic::kAddu, 9, 9, 8),  // forced-generic text tail
  };
  const auto peek = [&](std::uint32_t a) { return words[(a - base) / 4]; };
  TranslationCache tc(base, base + 12);
  TranslatedBlock* branch = tc.translate(base, spec, fused, nullptr, peek);
  TranslatedBlock* target = tc.translate(base + 8, spec, fused, nullptr, peek);
  TranslatedBlock* skipped = tc.translate(base + 4, spec, fused, nullptr, peek);
  ASSERT_TRUE(branch->has_taken);
  EXPECT_EQ(branch->taken_target, base + 8);
  ASSERT_TRUE(branch->has_fall);
  EXPECT_EQ(branch->fall_target, base + 4);
  EXPECT_FALSE(skipped->has_taken);  // jr is indirect, never chained
  EXPECT_FALSE(skipped->has_fall);
  EXPECT_FALSE(target->has_fall);  // its fall-through would leave text

  tc.chain(branch, /*taken_edge=*/true, target);
  tc.chain(branch, /*taken_edge=*/false, skipped);
  EXPECT_EQ(branch->taken, target);
  EXPECT_EQ(branch->fall, skipped);
  ASSERT_EQ(target->preds.size(), 1U);
  ASSERT_EQ(skipped->preds.size(), 1U);

  // Invalidating the taken successor severs the inbound link...
  tc.invalidate(base + 8);
  EXPECT_EQ(branch->taken, nullptr);
  EXPECT_EQ(branch->fall, skipped);  // the other edge survives
  EXPECT_EQ(tc.lookup(base + 8), nullptr);
  EXPECT_EQ(tc.stats().chain_severed, 1U);
  // ...and invalidating the predecessor severs its outbound link.
  tc.invalidate(base);
  EXPECT_TRUE(skipped->preds.empty());
  EXPECT_EQ(tc.stats().chain_severed, 2U);
}

TEST(TranslationCache, SelfLoopChainSeversCleanly) {
  // A one-instruction loop links its own taken edge to itself: invalidation
  // must cut both directions of that link without touching freed storage.
  const IsaUopSpec spec = build_isa_uops();
  const FusedTable fused = build_fused_table(spec);
  const std::uint32_t base = 0x00400000;
  const std::uint32_t word =
      isa::encode_i(isa::Mnemonic::kBeq, 0, 0, 0xFFFF);  // beq $0, $0, .
  TranslationCache tc(base, base + 8);
  TranslatedBlock* loop =
      tc.translate(base, spec, fused, nullptr, [&](std::uint32_t) { return word; });
  ASSERT_TRUE(loop->has_taken);
  EXPECT_EQ(loop->taken_target, base);
  tc.chain(loop, /*taken_edge=*/true, loop);
  EXPECT_EQ(loop->taken, loop);
  ASSERT_EQ(loop->preds.size(), 1U);
  tc.invalidate(base);
  EXPECT_EQ(tc.lookup(base), nullptr);
  EXPECT_EQ(tc.stats().chain_severed, 1U);
}

// --- Shared block base and per-trial overlays -------------------------------
//
// A campaign translates its program once into a BlockBase; every trial's
// TranslationCache overlays it. Overlays must never write the base, must keep
// their invalidations to themselves, and must never follow a link into a
// block that is dead in their own view.

// Everything observable about a base: per block its start, entry tags and
// link targets, and that nothing ever recorded a pred on it.
std::vector<std::uint32_t> base_fingerprint(const BlockBase& base) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t addr = base.text_base(); addr < base.text_end(); addr += 4) {
    const TranslatedBlock* block = base.block(addr);
    if (block == nullptr) continue;
    out.push_back(block->start);
    for (const TransEntry& e : block->entries) out.push_back(e.word);
    out.push_back(block->taken != nullptr ? block->taken->start : 0);
    out.push_back(block->fall != nullptr ? block->fall->start : 0);
    out.push_back(static_cast<std::uint32_t>(block->preds.size()));
    out.push_back(block->shared ? 1 : 0);
  }
  return out;
}

// checked_sum_loop's layout: two li words, then the loop body
// (addu, addiu, bnez) at the bnez target.
constexpr std::uint32_t kSumLoopBody = casm_::kTextBase + 8;

TEST(BlockBase, ClosesOverStaticEdgesAndPreChains) {
  const casm_::Image image = checked_sum_loop();
  const IsaUopSpec spec = build_isa_uops();
  const FusedTable fused = build_fused_table(spec);
  const std::uint32_t seeds[] = {image.entry};
  const BlockBase base(image.text_base, image.text_end(), seeds, spec, fused, nullptr,
                       [&](std::uint32_t a) { return image.word_at(a); });
  // Seeded at the entry, the closure reaches the loop body through the
  // bnez's taken edge, and the self-check block through its fall edge.
  const TranslatedBlock* entry = base.block(image.entry);
  const TranslatedBlock* body = base.block(kSumLoopBody);
  ASSERT_NE(entry, nullptr);
  ASSERT_NE(body, nullptr);
  EXPECT_GE(base.size(), 3U);
  EXPECT_EQ(entry->taken, body);
  EXPECT_EQ(body->taken, body);  // the loop's self-link
  ASSERT_NE(body->fall, nullptr);
  EXPECT_EQ(body->fall, entry->fall);
  EXPECT_TRUE(body->shared);
  EXPECT_TRUE(body->preds.empty());
}

TEST(BlockBase, OverlaysKeepInvalidationsToThemselvesAndNeverWriteTheBase) {
  const casm_::Image image = checked_sum_loop();
  const IsaUopSpec spec = build_isa_uops();
  const FusedTable fused = build_fused_table(spec);
  const auto peek = [&](std::uint32_t a) { return image.word_at(a); };
  const std::uint32_t seeds[] = {image.entry};
  const auto base =
      std::make_shared<const BlockBase>(image.text_base, image.text_end(), seeds, spec,
                                        fused, nullptr, peek);
  const std::vector<std::uint32_t> before = base_fingerprint(*base);

  TranslationCache a(image.text_base, image.text_end(), base);
  TranslationCache b(image.text_base, image.text_end(), base);
  TranslatedBlock* entry = a.lookup(image.entry);
  TranslatedBlock* body = a.lookup(kSumLoopBody);
  ASSERT_NE(body, nullptr);
  EXPECT_TRUE(body->shared);
  EXPECT_EQ(b.lookup(kSumLoopBody), body);  // both overlays serve the base block
  EXPECT_EQ(a.stats().hits, 2U);
  EXPECT_EQ(a.stats().translations, 0U);

  // Overlay a kills the body: dead in a, still live in b.
  a.invalidate(kSumLoopBody);
  EXPECT_EQ(a.lookup(kSumLoopBody), nullptr);
  EXPECT_FALSE(a.live(body));
  EXPECT_TRUE(b.live(body));
  EXPECT_EQ(b.lookup(kSumLoopBody), body);
  // The base keeps its links into the dead block, but a must refuse them.
  EXPECT_EQ(entry->taken, body);
  EXPECT_FALSE(a.live(entry->taken));

  // Retranslate into a's overlay and try to chain both ways: a base `from`
  // is never written, and an owned block may link into the live base.
  TranslatedBlock* fresh = a.translate(kSumLoopBody, spec, fused, nullptr, peek);
  EXPECT_FALSE(fresh->shared);
  EXPECT_EQ(a.lookup(kSumLoopBody), fresh);
  EXPECT_TRUE(a.live(fresh));
  a.chain(entry, /*taken_edge=*/true, fresh);
  EXPECT_EQ(entry->taken, body);  // unchanged: base blocks are read-only
  a.chain(fresh, /*taken_edge=*/true, fresh);
  a.chain(fresh, /*taken_edge=*/false, a.lookup(body->fall_target));
  EXPECT_EQ(fresh->taken, fresh);
  EXPECT_EQ(fresh->fall, body->fall);
  EXPECT_TRUE(body->fall->preds.empty());  // an owned->base link records no pred

  // Overlay b runs its own cycle on the same blocks, then a drops its owned
  // block (severing its links into the base) — the base never moves.
  b.invalidate(image.entry);
  TranslatedBlock* b_entry = b.translate(image.entry, spec, fused, nullptr, peek);
  b.chain(b_entry, /*taken_edge=*/true, b.lookup(kSumLoopBody));
  EXPECT_EQ(b_entry->taken, body);
  a.invalidate(kSumLoopBody);
  EXPECT_EQ(a.stats().chain_severed, 2U);  // fresh's self-link and its base fall link
  EXPECT_EQ(a.lookup(kSumLoopBody), nullptr);
  EXPECT_EQ(b.lookup(kSumLoopBody), body);
  EXPECT_EQ(base_fingerprint(*base), before);
}

TEST(BlockBase, DeadLinkIsReplacedOnlyByTheRetranslatedSuccessor) {
  // An owned block linked into a base block that later dies in this view:
  // the stale link must not count as installed, so chain() relinks it to the
  // retranslation.
  const casm_::Image image = checked_sum_loop();
  const IsaUopSpec spec = build_isa_uops();
  const FusedTable fused = build_fused_table(spec);
  const auto peek = [&](std::uint32_t a) { return image.word_at(a); };
  const std::uint32_t seeds[] = {image.entry};
  const auto base =
      std::make_shared<const BlockBase>(image.text_base, image.text_end(), seeds, spec,
                                        fused, nullptr, peek);
  TranslationCache tc(image.text_base, image.text_end(), base);
  TranslatedBlock* body = tc.lookup(kSumLoopBody);
  // A mid-body block (as after a tag-mismatch replay of the addu) links into
  // the base loop body.
  TranslatedBlock* tail = tc.translate(kSumLoopBody + 4, spec, fused, nullptr, peek);
  tc.chain(tail, /*taken_edge=*/true, body);
  ASSERT_EQ(tail->taken, body);
  tc.invalidate(kSumLoopBody);
  EXPECT_FALSE(tc.live(tail->taken));
  TranslatedBlock* fresh = tc.translate(kSumLoopBody, spec, fused, nullptr, peek);
  tc.chain(tail, /*taken_edge=*/true, fresh);
  EXPECT_EQ(tail->taken, fresh);
  ASSERT_EQ(fresh->preds.size(), 1U);
  EXPECT_EQ(fresh->preds[0].first, tail);
}

cpu::CpuConfig unmonitored_threaded() {
  cpu::CpuConfig config;
  config.engine = cpu::Engine::kThreaded;
  return config;
}

TEST(BlockBase, TextRewriteInBaseBlockReplaysAndNeverFollowsDeadLinks) {
  // The base was translated from clean text; a memory-text rewrite of the
  // loop's addu makes both base blocks holding it (the entry block, which
  // runs into the loop, and the loop body) mismatch once each. Each dies in
  // this trial's view, the rewritten word replays through the interpreter,
  // and the body is retranslated from current text. Were the base's self-link
  // or the replay tail's link into the dead body ever followed, every loop
  // iteration would mismatch and invalidate again. Unmonitored, so the
  // corrupted loop runs to the self-check instead of being stopped at its
  // first block end.
  const casm_::Image image = checked_sum_loop();
  const std::uint32_t mask = 1U << 11;  // addu's rd: the sum lands in t2
  cpu::CpuConfig oracle_config = unmonitored_threaded();
  oracle_config.engine = cpu::Engine::kSwitch;
  cpu::Cpu oracle(oracle_config, image);
  oracle.memory().write32(kSumLoopBody, oracle.memory().read32(kSumLoopBody) ^ mask);
  const cpu::RunResult expected = oracle.run();
  EXPECT_EQ(expected.reason, cpu::ExitReason::kSelfCheckFailed);

  cpu::LoadedImage loaded = cpu::preload_image(unmonitored_threaded(), image);
  const std::uint32_t seeds[] = {image.entry};
  cpu::build_block_base(unmonitored_threaded(), image, seeds, &loaded);
  const std::vector<std::uint32_t> before = base_fingerprint(*loaded.blocks);
  cpu::Cpu trial(unmonitored_threaded(), image, &loaded);
  trial.memory().write32(kSumLoopBody, trial.memory().read32(kSumLoopBody) ^ mask);
  EXPECT_EQ(trial.run(), expected);
  const TranslationCache::Stats& stats = trial.translation_cache()->stats();
  EXPECT_EQ(trial.tcache_mismatches(), 2U);
  EXPECT_EQ(stats.invalidations, 2U);
  EXPECT_EQ(stats.translations, 2U);  // the replay tail and the body
  EXPECT_GT(trial.chain_follows(), 15U);  // the retranslated loop chains to itself

  // A second trial on the same base still runs it clean and warm.
  cpu::Cpu clean(unmonitored_threaded(), image, &loaded);
  cpu::Cpu cold(unmonitored_threaded(), image);
  EXPECT_EQ(clean.run(), cold.run());
  EXPECT_EQ(clean.translation_cache()->stats().translations, 0U);
  EXPECT_EQ(clean.translation_cache()->stats().invalidations, 0U);
  EXPECT_EQ(base_fingerprint(*loaded.blocks), before);
}

TEST(BlockBase, MonitoredTrialsOnOneBaseMatchTheSwitchEngine) {
  // Every site that corrupts a fetched word, on a threaded trial warm from
  // the shared base and on the switch engine (which ignores the base).
  const casm_::Image image = checked_sum_loop();
  cpu::LoadedImage loaded = cpu::preload_image(engine_config(cpu::Engine::kThreaded), image);
  const std::uint32_t seeds[] = {image.entry};
  cpu::build_block_base(engine_config(cpu::Engine::kThreaded), image, seeds, &loaded);
  const std::vector<std::uint32_t> before = base_fingerprint(*loaded.blocks);
  for (int fault = 0; fault < 3; ++fault) {
    SCOPED_TRACE("fault " + std::to_string(fault));
    cpu::RunResult results[2];
    for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
      cpu::Cpu cpu(engine_config(engine), image, &loaded);
      OneShotTamper tamper(/*trigger=*/9, /*mask=*/1U << 11);
      if (fault == 0) {
        cpu.memory().write32(kSumLoopBody, cpu.memory().read32(kSumLoopBody) ^ (1U << 11));
      } else if (fault == 1) {
        cpu.fetch_path().set_bus_tamper(&tamper);
      } else {
        cpu.set_post_id_fault({4, 1U << 16});
      }
      results[engine == cpu::Engine::kSwitch ? 0 : 1] = cpu.run();
      EXPECT_EQ(cpu.translation_cache() != nullptr, engine == cpu::Engine::kThreaded);
    }
    EXPECT_EQ(results[0], results[1]);
  }
  EXPECT_EQ(base_fingerprint(*loaded.blocks), before);
}

// --- Batched / unbatched handler boundary ------------------------------------
//
// The threaded engine runs a block's straight-line prefix through batched
// handlers only when a per-block precheck proves nothing can interrupt it,
// and otherwise through the unbatched ones. These tests drive a kernel that
// uses every fused kind across every point where that choice flips.

// Every fused kind executes: ALU register/immediate forms, lui, loads and
// stores (with a load-use stall), mult/div with HI/LO reads and writes,
// one- and two-register branches, jal into a leaf that returns through jr, a
// print syscall, a straight-line run longer than kMaxBlockEntries (its
// capped tail runs as kGeneric), and a closing break (kIllegal), which ends
// the run with an illegal-instruction trap.
casm_::Image every_kind_kernel() {
  casm_::Asm a;
  a.data_word(0);
  a.func("main");
  a.li(isa::kS0, 3);
  a.lui(isa::kS1, 0x1234);
  casm_::Label loop = a.bound_label();
  a.addu(isa::kT0, isa::kS0, isa::kS1);
  a.sw(isa::kT0, 0, isa::kGp);
  a.lw(isa::kT1, 0, isa::kGp);
  a.addu(isa::kT2, isa::kT1, isa::kT1);  // load-use
  a.mult(isa::kT1, isa::kS0);
  a.mflo(isa::kT3);  // waits out the mult latency
  a.mthi(isa::kT3);
  a.div(isa::kT3, isa::kS0);
  a.mfhi(isa::kT4);
  a.jal("leaf");
  a.sys_print_int(isa::kT4);
  a.addiu(isa::kS0, isa::kS0, -1);
  a.bgtz(isa::kS0, loop);
  for (int i = 0; i < 70; ++i) a.addiu(isa::kT5, isa::kT5, i + 1);
  casm_::Label end = a.label();
  a.beq(isa::kT5, isa::kZero, end);  // not taken: falls through
  a.bind(end);
  a.break_();
  a.func("leaf");
  a.addiu(isa::kV1, isa::kV1, 1);
  a.jr(isa::kRa);
  return a.finalize();
}

cpu::CpuConfig boundary_config(cpu::Engine engine) {
  cpu::CpuConfig config = engine_config(engine);
  config.icache.enabled = true;  // I-cache refill stalls land inside batches
  return config;
}

TEST(ThreadedBoundary, KernelTranslatesToEveryFusedKind) {
  const casm_::Image image = every_kind_kernel();
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  const FusedTable fused = build_fused_table(spec);
  TranslationCache tc(image.text_base, image.text_end());
  bool seen[kNumFusedKinds] = {};
  for (std::uint32_t addr = image.text_base; addr < image.text_end(); addr += 4) {
    const TranslatedBlock* block = tc.translate(
        addr, spec, fused, nullptr, [&](std::uint32_t a) { return image.word_at(a); });
    for (const TransEntry& e : block->entries) seen[static_cast<unsigned>(e.kind)] = true;
  }
  for (unsigned k = 0; k < kNumFusedKinds; ++k) EXPECT_TRUE(seen[k]) << "fused kind " << k;

  // The clean run reaches the closing break, so every word above executed.
  cpu::Cpu cpu(boundary_config(cpu::Engine::kSwitch), image);
  const cpu::RunResult r = cpu.run();
  EXPECT_EQ(r.reason, cpu::ExitReason::kIllegalInstruction);
  EXPECT_FALSE(r.console.empty());
}

TEST(ThreadedBoundary, WatchdogAndPostIdCutsAtEveryInstructionMatchInterpreter) {
  // Cutting the run with the watchdog, or landing a post-ID fault, at every
  // dynamic instruction moves the cut across every block boundary and every
  // point inside a batched prefix, so blocks flip between the batched and
  // unbatched handlers around it.
  const casm_::Image image = every_kind_kernel();
  cpu::Cpu full(boundary_config(cpu::Engine::kSwitch), image);
  const std::uint64_t total = full.run().instructions;
  ASSERT_GT(total, kMaxBlockEntries);
  for (std::uint64_t cut = 0; cut <= total + 1; ++cut) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    cpu::RunResult results[2];
    for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
      cpu::CpuConfig config = boundary_config(engine);
      config.max_instructions = cut;
      cpu::Cpu cpu(config, image);
      results[engine == cpu::Engine::kSwitch ? 0 : 1] = cpu.run();
    }
    EXPECT_EQ(results[0], results[1]);
    if (cut <= total) {
      EXPECT_EQ(results[0].reason, cpu::ExitReason::kWatchdog);
    }
  }
  for (std::uint64_t index = 0; index < total; ++index) {
    SCOPED_TRACE("post-ID fault at " + std::to_string(index));
    cpu::RunResult results[2];
    for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
      cpu::CpuConfig config = boundary_config(engine);
      config.max_instructions = 4 * total;  // a corrupted loop cannot run long
      cpu::Cpu cpu(config, image);
      cpu.set_post_id_fault({index, 1U << 11});
      results[engine == cpu::Engine::kSwitch ? 0 : 1] = cpu.run();
    }
    EXPECT_EQ(results[0], results[1]);
  }
}

cpu::Snapshot snapshot_of(const cpu::Cpu& cpu) {
  cpu::Snapshot snapshot;
  cpu.save_snapshot(&snapshot);
  return snapshot;
}

// Pauses `config`'s engine with run_until at every dynamic instruction k of
// `image`'s run and holds it to a step()-driven twin: the paused machine's
// snapshot equals the twin's at k, both for one machine paused at every k in
// turn and for a fresh machine cut once at k; a repeated or earlier cut
// returns at once without moving; resuming with run() ends exactly as the
// uninterrupted run(); and a cut past the end returns that final result.
void expect_run_until_pauses_like_step(const casm_::Image& image, const cpu::CpuConfig& config) {
  // Every machine reads one preloaded image, so a fresh one is cheap.
  const cpu::LoadedImage loaded = cpu::preload_image(config, image);
  const cpu::RunResult full = cpu::Cpu(config, image, &loaded).run();
  const std::uint64_t total = full.instructions;
  cpu::Cpu twin(config, image, &loaded);
  cpu::Cpu paused(config, image, &loaded);
  for (std::uint64_t k = 0; k <= total; ++k) {
    SCOPED_TRACE("cut " + std::to_string(k));
    ASSERT_EQ(twin.instructions_retired(), k);
    const cpu::Snapshot stepped = snapshot_of(twin);

    ASSERT_EQ(paused.run_until(k), std::nullopt);
    EXPECT_EQ(snapshot_of(paused), stepped);
    EXPECT_EQ(paused.run_until(k), std::nullopt);
    if (k > 0) {
      EXPECT_EQ(paused.run_until(k - 1), std::nullopt);
    }
    EXPECT_EQ(snapshot_of(paused), stepped);

    cpu::Cpu cut(config, image, &loaded);
    ASSERT_EQ(cut.run_until(k), std::nullopt);
    EXPECT_EQ(snapshot_of(cut), stepped);
    EXPECT_EQ(cut.run(), full);

    if (k < total) {
      ASSERT_EQ(twin.step(), std::nullopt);
    }
  }
  EXPECT_EQ(paused.run_until(total + 1), full);
  EXPECT_EQ(twin.step(), full);
  EXPECT_EQ(cpu::Cpu(config, image, &loaded).run_until(total + 1), full);
  EXPECT_EQ(cpu::Cpu(config, image, &loaded).run_until(UINT64_MAX), full);
}

TEST(ThreadedBoundary, RunUntilPausesAtEveryInstructionLikeStep) {
  // The cut moves across every block boundary and every point inside a
  // batched prefix, as with the watchdog above; a pause there must leave
  // exactly what single-stepping leaves, on both engines, because golden
  // recordings snapshot paused machines.
  const casm_::Image kernel = every_kind_kernel();
  const casm_::Image sha = workloads::build_workload("sha", {0.01, 42});
  for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
    SCOPED_TRACE(std::string(cpu::engine_name(engine)));
    cpu::CpuConfig plain;
    plain.engine = engine;
    {
      SCOPED_TRACE("every-kind kernel, monitored, I-cache");
      expect_run_until_pauses_like_step(kernel, boundary_config(engine));
    }
    {
      SCOPED_TRACE("every-kind kernel, baseline");
      expect_run_until_pauses_like_step(kernel, plain);
    }
    {
      SCOPED_TRACE("sha, CIC16, I-cache");
      cpu::CpuConfig config = boundary_config(engine);
      config.cic.iht_entries = 16;
      expect_run_until_pauses_like_step(sha, config);
    }
  }
}

TEST(ThreadedBoundary, RecoveryRunsMatchInterpreter) {
  // Recovery mode forces the unbatched handler for every entry. The closing
  // break is a persistent trap: its block is retried until the budget runs
  // out. A transient bus flip earlier on is detected, rolled back and
  // re-executed clean, so the tampered run costs exactly one more recovery
  // and prints the same output.
  const casm_::Image image = every_kind_kernel();
  cpu::RunResult clean[2];
  cpu::RunResult tampered[2];
  for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
    const int i = engine == cpu::Engine::kSwitch ? 0 : 1;
    cpu::CpuConfig config = boundary_config(engine);
    config.icache.enabled = false;  // every fetch is a bus transfer
    config.recovery.enabled = true;
    cpu::Cpu plain(config, image);
    clean[i] = plain.run();
    cpu::Cpu flipped(config, image);
    OneShotTamper tamper(/*trigger=*/20, /*mask=*/1U << 11);
    flipped.fetch_path().set_bus_tamper(&tamper);
    tampered[i] = flipped.run();
  }
  EXPECT_EQ(clean[0], clean[1]);
  EXPECT_EQ(tampered[0], tampered[1]);
  EXPECT_EQ(clean[0].reason, cpu::ExitReason::kIllegalInstruction);
  EXPECT_EQ(tampered[0].reason, cpu::ExitReason::kIllegalInstruction);
  EXPECT_EQ(tampered[0].recoveries, clean[0].recoveries + 1);
  EXPECT_EQ(tampered[0].console, clean[0].console);
}

// --- Region-granular RHASH folding -------------------------------------------
//
// A block entered at a check-region start (STA clear, RHASH at its reset
// value) runs its straight-line prefix batched and takes RHASH from the
// entries' translation-time folds instead of stepping the HASHFU per fetch.
// Blocks entered mid-region fold per fetch. Every hash kind — including the
// keyed ROTXOR, whose reset value is the non-zero process key — must keep the
// switch engine's results exactly.

constexpr std::uint32_t kFoldKey = 0x5EED1234;

cpu::CpuConfig fold_config(cpu::Engine engine, hash::HashKind kind) {
  cpu::CpuConfig config = engine_config(engine);  // no I-cache: one bus transfer per fetch
  config.cic.hash_kind = kind;
  config.cic.hash_key = kFoldKey;
  config.max_instructions = 5000;  // a flip can send the program into a loop
  return config;
}

// Flips the same bit in the words of two fetches. Two flips of one bit in
// one check region cancel in an XOR hash: the region still matches its IHT
// record, but only if both tampered words were folded into RHASH.
class PairedTamper : public mem::BusTamper {
 public:
  PairedTamper(std::uint64_t first, std::uint64_t second, std::uint32_t mask)
      : first_(first), second_(second), mask_(mask) {}
  std::uint32_t on_transfer(std::uint32_t, std::uint32_t word) override {
    const std::uint64_t n = transfers_++;
    return n == first_ || n == second_ ? word ^ mask_ : word;
  }

 private:
  std::uint64_t transfers_ = 0;
  std::uint64_t first_;
  std::uint64_t second_;
  std::uint32_t mask_;
};

// {switch, threaded} results for `image` under `kind`, with the bit flip
// `tamper` describes, if any, on the bus.
std::array<cpu::RunResult, 2> fold_runs(const casm_::Image& image, hash::HashKind kind,
                                        std::optional<PairedTamper> tamper = std::nullopt) {
  std::array<cpu::RunResult, 2> results;
  for (const cpu::Engine engine : {cpu::Engine::kSwitch, cpu::Engine::kThreaded}) {
    cpu::Cpu cpu(fold_config(engine, kind), image);
    std::optional<PairedTamper> bus = tamper;  // fresh transfer count per run
    if (bus.has_value()) cpu.fetch_path().set_bus_tamper(&*bus);
    results[engine == cpu::Engine::kSwitch ? 0 : 1] = cpu.run();
  }
  return results;
}

TEST(RegionFold, EntriesCarryTheRegionFoldOfTheirTags) {
  const casm_::Image image = checked_sum_loop();
  IsaUopSpec spec = build_isa_uops();
  embed_monitoring(&spec);
  const FusedTable fused = build_fused_table(spec);
  const auto peek = [&](std::uint32_t a) { return image.word_at(a); };
  for (const hash::HashKind kind : hash::all_hash_kinds()) {
    SCOPED_TRACE(std::string(hash::hash_kind_name(kind)));
    const auto unit = hash::make_hash_unit(kind, kFoldKey);
    const TranslatedBlock block =
        translate_block(image.entry, image.text_base, image.text_end(), spec, fused, unit.get(), peek);
    ASSERT_EQ(block.entries.size(), 5U);  // li, li, addu, addiu, bnez
    std::uint32_t rhash = unit->init();
    for (const TransEntry& e : block.entries) {
      rhash = unit->step(rhash, e.word);
      EXPECT_EQ(e.rhash, rhash);
    }
  }
  // Without a HASHFU (an unmonitored machine) nothing is folded.
  const TranslatedBlock plain =
      translate_block(image.entry, image.text_base, image.text_end(), spec, fused, nullptr, peek);
  for (const TransEntry& e : plain.entries) EXPECT_EQ(e.rhash, 0U);
}

TEST(RegionFold, CleanRunsMatchTheOracleForEveryHashKind) {
  for (const hash::HashKind kind : hash::all_hash_kinds()) {
    SCOPED_TRACE(std::string(hash::hash_kind_name(kind)));
    const auto loop = fold_runs(checked_sum_loop(), kind);
    EXPECT_EQ(loop[0].reason, cpu::ExitReason::kExit);
    EXPECT_EQ(loop[0], loop[1]);
    // Its print syscall and its 64-entry forced tail make the kernel enter
    // blocks mid-region (STA set), which fold per fetch.
    const auto kernel = fold_runs(every_kind_kernel(), kind);
    EXPECT_EQ(kernel[0].reason, cpu::ExitReason::kIllegalInstruction);
    EXPECT_FALSE(kernel[0].console.empty());
    EXPECT_EQ(kernel[0], kernel[1]);
  }
}

TEST(RegionFold, BusFlipOnEveryFetchMatchesTheOracleForEveryHashKind) {
  // One flip per run at every fetch of the clean run, then the same bit
  // flipped at two fetches one and two apart. In the sum loop the entry
  // block (li, li, addu, addiu, bnez) opens the first region and the loop
  // body (addu, addiu, bnez) reopens one per iteration, so fetches 0, 2 and
  // 4 — and 5, 6 and 7 — hit the first, a middle and the terminator entry of
  // a batched block. In the kernel, flips also land in the blocks entered
  // mid-region after the syscall and after the forced tail. Paired flips in
  // one region cancel under XOR, so a tampered word missing from RHASH would
  // turn the oracle's escape into a detection.
  constexpr std::uint64_t kNone = ~std::uint64_t{0};
  for (const casm_::Image& image : {checked_sum_loop(), every_kind_kernel()}) {
    for (const hash::HashKind kind : hash::all_hash_kinds()) {
      SCOPED_TRACE(std::string(hash::hash_kind_name(kind)));
      const std::uint64_t fetches = fold_runs(image, kind)[0].instructions;
      for (std::uint64_t flip = 0; flip <= fetches; ++flip) {
        for (const std::uint64_t second : {kNone, flip + 1, flip + 2}) {
          const auto runs = fold_runs(image, kind, PairedTamper(flip, second, 1U << 11));
          ASSERT_EQ(runs[0], runs[1]) << "flips at fetches " << flip << ", " << second;
        }
      }
    }
  }
}

TEST(RegionFold, WarmCampaignTrialsMatchTheOracleForNonXorHashes) {
  // Campaign trials overlay a block base folded at translation with the
  // campaign machine's HASHFU, and restored trials resume mid-region.
  const casm_::Image image = checked_sum_loop();
  for (const hash::HashKind kind : {hash::HashKind::kRotXorKeyed, hash::HashKind::kCrc32}) {
    SCOPED_TRACE(std::string(hash::hash_kind_name(kind)));
    fault::CampaignRunner oracle(image, fold_config(cpu::Engine::kSwitch, kind));
    fault::CampaignRunner warm(image, fold_config(cpu::Engine::kThreaded, kind));
    for (const fault::FaultSite site : {fault::FaultSite::kMemoryText, fault::FaultSite::kFetchBus,
                                        fault::FaultSite::kPostIdLatch}) {
      EXPECT_EQ(exp::run_all(oracle.sweep(site, 1, 60, 13), 1),
                exp::run_all(warm.sweep(site, 1, 60, 13), 1))
          << fault::fault_site_name(site);
    }
  }
}

}  // namespace
}  // namespace cicmon::uop
