// CPU tests: instruction semantics through the microoperation programs,
// syscalls, the timing model, and the monitoring integration.
#include <gtest/gtest.h>

#include "casm/builder.h"
#include "cpu/cpu.h"
#include "cpu/snapshot.h"
#include "obs/metrics.h"

namespace cicmon::cpu {
namespace {

using casm_::Asm;
using casm_::Label;
using namespace cicmon::isa;

RunResult run(Asm& a, const CpuConfig& config = {}) {
  const casm_::Image image = a.finalize();
  Cpu cpu(config, image);
  return cpu.run();
}

// Runs a fragment that leaves its result in $t0 and checks it.
void expect_t0(void (*body)(Asm&), std::uint32_t expected) {
  Asm a;
  a.func("main");
  body(a);
  a.check_eq(kT0, expected);
  a.sys_exit(0);
  const RunResult r = run(a);
  EXPECT_EQ(r.reason, ExitReason::kExit)
      << "observed " << r.check_observed << " expected " << r.check_expected;
}

TEST(Semantics, AluImmediates) {
  expect_t0([](Asm& a) { a.li(kT0, 0); a.addiu(kT0, kT0, -5); }, 0xFFFFFFFB);
  expect_t0([](Asm& a) { a.li(kT1, 0xF0); a.andi(kT0, kT1, 0x3C); }, 0x30);
  expect_t0([](Asm& a) { a.li(kT1, 0xF0); a.ori(kT0, kT1, 0x0F); }, 0xFF);
  expect_t0([](Asm& a) { a.li(kT1, 0xFF); a.xori(kT0, kT1, 0x0F); }, 0xF0);
  expect_t0([](Asm& a) { a.lui(kT0, 0x1234); }, 0x12340000);
  expect_t0([](Asm& a) { a.li(kT1, 3); a.slti(kT0, kT1, 7); }, 1);
  expect_t0([](Asm& a) { a.li(kT1, static_cast<std::uint32_t>(-1)); a.sltiu(kT0, kT1, 7); }, 0);
}

TEST(Semantics, AluThreeRegister) {
  expect_t0([](Asm& a) { a.li(kT1, 7); a.li(kT2, 8); a.addu(kT0, kT1, kT2); }, 15);
  expect_t0([](Asm& a) { a.li(kT1, 7); a.li(kT2, 8); a.subu(kT0, kT1, kT2); }, 0xFFFFFFFF);
  expect_t0([](Asm& a) { a.li(kT1, 0xFF); a.li(kT2, 0x0F); a.and_(kT0, kT1, kT2); }, 0x0F);
  expect_t0([](Asm& a) { a.li(kT1, 0xF0); a.li(kT2, 0x0F); a.or_(kT0, kT1, kT2); }, 0xFF);
  expect_t0([](Asm& a) { a.li(kT1, 0xFF); a.li(kT2, 0xF0); a.xor_(kT0, kT1, kT2); }, 0x0F);
  expect_t0([](Asm& a) { a.li(kT1, 0); a.li(kT2, 0); a.nor(kT0, kT1, kT2); }, 0xFFFFFFFF);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, static_cast<std::uint32_t>(-2));
        a.li(kT2, 1);
        a.slt(kT0, kT1, kT2);
      },
      1);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, static_cast<std::uint32_t>(-2));
        a.li(kT2, 1);
        a.sltu(kT0, kT1, kT2);
      },
      0);
}

TEST(Semantics, Shifts) {
  expect_t0([](Asm& a) { a.li(kT1, 1); a.sll(kT0, kT1, 31); }, 0x80000000);
  expect_t0([](Asm& a) { a.li(kT1, 0x80000000); a.srl(kT0, kT1, 31); }, 1);
  expect_t0([](Asm& a) { a.li(kT1, 0x80000000); a.sra(kT0, kT1, 31); }, 0xFFFFFFFF);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 1);
        a.li(kT2, 4);
        a.sllv(kT0, kT1, kT2);
      },
      16);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x80000000);
        a.li(kT2, 4);
        a.srav(kT0, kT1, kT2);
      },
      0xF8000000);
}

TEST(Semantics, MultiplyDivideHiLo) {
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 100000);
        a.li(kT2, 100000);
        a.multu(kT1, kT2);
        a.mfhi(kT0);
      },
      static_cast<std::uint32_t>((100000ULL * 100000ULL) >> 32));
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 47);
        a.li(kT2, 5);
        a.divu(kT1, kT2);
        a.mflo(kT0);
      },
      9);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 47);
        a.li(kT2, 5);
        a.divu(kT1, kT2);
        a.mfhi(kT0);
      },
      2);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x1234);
        a.mthi(kT1);
        a.mfhi(kT0);
      },
      0x1234);
}

TEST(Semantics, LoadsAndStores) {
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0xDEADBEEF);
        a.sw(kT1, -4, kSp);
        a.lw(kT0, -4, kSp);
      },
      0xDEADBEEF);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x80);
        a.sb(kT1, -8, kSp);
        a.lb(kT0, -8, kSp);  // sign-extends
      },
      0xFFFFFF80);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x80);
        a.sb(kT1, -8, kSp);
        a.lbu(kT0, -8, kSp);
      },
      0x80);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x8001);
        a.sh(kT1, -12, kSp);
        a.lh(kT0, -12, kSp);
      },
      0xFFFF8001);
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 0x8001);
        a.sh(kT1, -12, kSp);
        a.lhu(kT0, -12, kSp);
      },
      0x8001);
}

TEST(Semantics, RegisterZeroIsHardwired) {
  expect_t0(
      [](Asm& a) {
        a.li(kT1, 99);
        a.addu(kZero, kT1, kT1);  // write attempt must be ignored
        a.move(kT0, kZero);
      },
      0);
}

TEST(Semantics, BranchesAndCalls) {
  Asm a;
  a.func("main");
  a.li(kT0, 0);
  a.li(kA0, 4);
  a.call("twice");
  a.move(kT0, kV0);
  a.check_eq(kT0, 8);
  a.sys_exit(0);
  a.func("twice");
  a.addu(kV0, kA0, kA0);
  a.ret();
  EXPECT_EQ(run(a).reason, ExitReason::kExit);
}

TEST(Semantics, JalLinksReturnAddress) {
  Asm a;
  a.func("main");
  a.call("probe");
  a.sys_exit(0);
  a.func("probe");
  // $ra must point at the instruction after the jal (main+4).
  a.move(kT0, kRa);
  a.check_eq(kT0, casm_::kTextBase + 4);
  a.ret();
  EXPECT_EQ(run(a).reason, ExitReason::kExit);
}

TEST(Syscalls, ConsoleOutput) {
  Asm a;
  a.func("main");
  a.li(kA0, 42);
  a.sys(casm_::Sys::kPutInt);
  a.sys_print_char('\n');
  a.li(kA0, static_cast<std::uint32_t>(-7));
  a.sys(casm_::Sys::kPutInt);
  a.sys_exit(3);
  const RunResult r = run(a);
  EXPECT_EQ(r.console, "42\n-7");
  EXPECT_EQ(r.exit_code, 3U);
}

TEST(Syscalls, CheckTrapRecordsValues) {
  Asm a;
  a.func("main");
  a.li(kT0, 5);
  a.check_eq(kT0, 6);
  a.sys_exit(0);
  const RunResult r = run(a);
  EXPECT_EQ(r.reason, ExitReason::kSelfCheckFailed);
  EXPECT_EQ(r.check_observed, 5U);
  EXPECT_EQ(r.check_expected, 6U);
}

TEST(Traps, IllegalInstruction) {
  Asm a;
  a.func("main");
  a.emit(0xFFFFFFFF);  // decodes to kInvalid
  a.sys_exit(0);
  EXPECT_EQ(run(a).reason, ExitReason::kIllegalInstruction);
}

TEST(Traps, BreakIsIllegal) {
  Asm a;
  a.func("main");
  a.break_();
  a.sys_exit(0);
  EXPECT_EQ(run(a).reason, ExitReason::kIllegalInstruction);
}

TEST(Traps, WildPcOnJumpOutsideText) {
  Asm a;
  a.func("main");
  a.li(kT0, 0x10000000);  // data segment
  a.jr(kT0);
  EXPECT_EQ(run(a).reason, ExitReason::kWildPc);
}

TEST(Traps, WatchdogStopsInfiniteLoop) {
  Asm a;
  a.func("main");
  Label spin = a.bound_label();
  a.b(spin);
  CpuConfig config;
  config.max_instructions = 1000;
  EXPECT_EQ(run(a, config).reason, ExitReason::kWatchdog);
}

TEST(Timing, StraightLineCpiIsOne) {
  Asm a;
  a.func("main");
  for (int i = 0; i < 20; ++i) a.addiu(kT0, kT0, 1);
  a.sys_exit(0);
  const RunResult r = run(a);
  // No taken branches, no loads: cycles == instructions.
  EXPECT_EQ(r.cycles, r.instructions);
}

TEST(Timing, TakenBranchCostsBubble) {
  Asm a;
  a.func("main");
  Label target = a.label();
  a.b(target);
  a.bind(target);
  a.sys_exit(0);
  const RunResult r = run(a);
  EXPECT_EQ(r.branch_bubbles, 1U);
  EXPECT_EQ(r.cycles, r.instructions + 1);
}

TEST(Timing, NotTakenBranchIsFree) {
  Asm a;
  a.func("main");
  a.li(kT0, 1);
  Label skip = a.label();
  a.beqz(kT0, skip);  // not taken
  a.bind(skip);
  a.sys_exit(0);
  EXPECT_EQ(run(a).branch_bubbles, 0U);
}

TEST(Timing, LoadUseStalls) {
  Asm a;
  a.func("main");
  a.lw(kT0, -4, kSp);
  a.addu(kT1, kT0, kT0);  // consumes the load next cycle
  a.sys_exit(0);
  EXPECT_EQ(run(a).load_use_stalls, 1U);

  Asm b;
  b.func("main");
  b.lw(kT0, -4, kSp);
  b.addiu(kT5, kT5, 1);   // unrelated filler
  b.addu(kT1, kT0, kT0);
  b.sys_exit(0);
  EXPECT_EQ(run(b).load_use_stalls, 0U);
}

TEST(Timing, StoreDataDoesNotStall) {
  Asm a;
  a.func("main");
  a.lw(kT0, -4, kSp);
  a.sw(kT0, -8, kSp);  // store data forwards at MEM
  a.sys_exit(0);
  EXPECT_EQ(run(a).load_use_stalls, 0U);
}

TEST(Timing, MulDivLatencyStallsEarlyMfhi) {
  Asm a;
  a.func("main");
  a.li(kT1, 3);
  a.mult(kT1, kT1);
  a.mflo(kT0);  // immediately after: must stall
  a.sys_exit(0);
  EXPECT_GT(run(a).muldiv_stalls, 0U);

  Asm b;
  b.func("main");
  b.li(kT1, 3);
  b.mult(kT1, kT1);
  for (int i = 0; i < 8; ++i) b.addiu(kT5, kT5, 1);
  b.mflo(kT0);  // latency already covered
  b.sys_exit(0);
  EXPECT_EQ(run(b).muldiv_stalls, 0U);
}

TEST(Timing, ICacheStallsCharged) {
  Asm a;
  a.func("main");
  for (int i = 0; i < 32; ++i) a.addiu(kT0, kT0, 1);
  a.sys_exit(0);
  CpuConfig config;
  config.icache.enabled = true;
  config.icache.miss_penalty = 4;
  const RunResult r = run(a, config);
  EXPECT_GT(r.icache_stall_cycles, 0U);
  EXPECT_EQ(r.icache_stall_cycles % 4, 0U);
}

TEST(Monitoring, TransparentToProgramResults) {
  auto build = [] {
    Asm a;
    a.func("main");
    a.li(kT0, 6);
    a.li(kT1, 1);
    Label loop = a.bound_label();
    a.li(kT2, 3);
    a.multu(kT1, kT2);
    a.mflo(kT1);
    a.addiu(kT0, kT0, -1);
    a.bnez(kT0, loop);
    a.move(kA0, kT1);
    a.sys(casm_::Sys::kPutInt);
    a.sys_exit(0);
    return a.finalize();
  };
  const casm_::Image image = build();

  CpuConfig off;
  Cpu plain(off, image);
  const RunResult r_off = plain.run();

  CpuConfig on;
  on.monitoring = true;
  on.cic.iht_entries = 8;
  Cpu monitored(on, image);
  const RunResult r_on = monitored.run();

  EXPECT_EQ(r_off.console, r_on.console);
  EXPECT_EQ(r_off.instructions, r_on.instructions);  // same dynamic stream
  EXPECT_EQ(r_on.console, "729");                    // 3^6
  EXPECT_GT(r_on.iht.lookups, 0U);
  EXPECT_EQ(r_off.iht.lookups, 0U);
  // The only cycle difference is the OS exception handling.
  EXPECT_EQ(r_on.app_cycles(), r_off.cycles);
}

TEST(Monitoring, LookupKeysMatchBlockBoundaries) {
  Asm a;
  a.func("main");
  a.li(kT0, 1);            // 0x400000
  Label skip = a.label();
  a.beqz(kZero, skip);     // 0x400004: taken branch ends block [0x400000, 0x400004]
  a.nop();                 // 0x400008: skipped
  a.bind(skip);
  a.sys_exit(0);
  const casm_::Image image = a.finalize();

  CpuConfig config;
  config.monitoring = true;
  Cpu cpu(config, image);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> keys;
  cpu.set_lookup_observer([&](std::uint32_t s, std::uint32_t e) { keys.emplace_back(s, e); });
  cpu.run();
  ASSERT_EQ(keys.size(), 1U);
  EXPECT_EQ(keys[0].first, casm_::kTextBase);
  EXPECT_EQ(keys[0].second, casm_::kTextBase + 4);
}

TEST(Monitoring, SpecialRegistersFollowFigure3) {
  Asm a;
  a.func("main");
  a.li(kT0, 1);
  a.sys_exit(0);
  const casm_::Image image = a.finalize();
  CpuConfig config;
  config.monitoring = true;
  Cpu cpu(config, image);
  cpu.step();  // li expands to a single addiu; executes the first instruction
  EXPECT_EQ(cpu.special(uop::SpecialReg::kSta), casm_::kTextBase);
  EXPECT_EQ(cpu.special(uop::SpecialReg::kRhash), image.text[0]);  // XOR of one word
  EXPECT_EQ(cpu.special(uop::SpecialReg::kPpc), casm_::kTextBase);
}

TEST(Monitoring, PostIdFaultEscapesMonitor) {
  Asm a;
  a.func("main");
  a.li(kT0, 5);
  a.li(kT1, 5);   // dynamic index 1: will be corrupted post-ID
  a.addu(kT2, kT0, kT1);
  a.check_eq(kT2, 10);
  a.sys_exit(0);
  const casm_::Image image = a.finalize();

  CpuConfig config;
  config.monitoring = true;
  Cpu cpu(config, image);
  cpu.set_post_id_fault({1, 1U << 16});  // flip an immediate bit after ID
  const RunResult r = cpu.run();
  // The monitor saw the clean word, so no mismatch: the corruption surfaces
  // as a wrong result instead (the §3.2 limitation).
  EXPECT_EQ(r.reason, ExitReason::kSelfCheckFailed);
  EXPECT_EQ(r.iht.mismatches, 0U);
}

// Every observable field that the experiment layers consume. Used to assert
// the engines never disagree on simulated behaviour.
void expect_results_identical(const RunResult& a, const RunResult& b) {
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

casm_::Image checked_sum_loop() {
  Asm a;
  a.func("main");
  a.li(kT0, 20);
  a.li(kT1, 0);
  Label loop = a.bound_label();
  a.addu(kT1, kT1, kT0);
  a.addiu(kT0, kT0, -1);
  a.bnez(kT0, loop);
  a.check_eq(kT1, 210);
  a.sys_exit(0);
  return a.finalize();
}

// The predecode cache serves the switch engine (the reference oracle); its
// tamper safety is checked against the threaded engine, which never reads it.
CpuConfig engine_config(Engine engine) {
  CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 8;
  config.engine = engine;
  return config;
}

TEST(PredecodeCache, CleanMonitoredRunMatchesThreaded) {
  const casm_::Image image = checked_sum_loop();
  Cpu oracle(engine_config(Engine::kSwitch), image);
  Cpu threaded(engine_config(Engine::kThreaded), image);
  expect_results_identical(oracle.run(), threaded.run());
}

TEST(PredecodeCache, TextFlipDetectionMatchesThreaded) {
  // Memory faults are injected before run(), so the cached entry for the
  // flipped address only ever holds the corrupted word; what matters is that
  // the detection results — latency (cycles), exit reason, IHT stats — agree
  // field by field with the engine that never consults the cache.
  const casm_::Image image = checked_sum_loop();
  RunResult results[2];
  for (const Engine engine : {Engine::kSwitch, Engine::kThreaded}) {
    SCOPED_TRACE(engine_name(engine));
    Cpu cpu(engine_config(engine), image);
    const std::uint32_t addr = casm_::kTextBase + 8;
    cpu.memory().write32(addr, cpu.memory().read32(addr) ^ (1U << 11));  // rd bit: stays valid
    const RunResult r = cpu.run();
    EXPECT_EQ(r.reason, ExitReason::kMonitorTerminated);
    EXPECT_NE(r.monitor_cause, os::TerminationCause::kNone);
    results[engine == Engine::kSwitch ? 0 : 1] = r;
  }
  expect_results_identical(results[0], results[1]);
}

// Bus tamper that corrupts one specific dynamic fetch — the cache-resident
// copy (and any predecoded entry) saw the clean word.
class OneShotTamper : public mem::BusTamper {
 public:
  explicit OneShotTamper(std::uint64_t trigger, std::uint32_t mask)
      : trigger_(trigger), mask_(mask) {}
  std::uint32_t on_transfer(std::uint32_t, std::uint32_t word) override {
    return transfers_++ == trigger_ ? word ^ mask_ : word;
  }

 private:
  std::uint64_t transfers_ = 0;
  std::uint64_t trigger_;
  std::uint32_t mask_;
};

TEST(PredecodeCache, BusTamperMidRunMatchesThreaded) {
  // The tampered word arrives at an address whose predecode slot already
  // holds the clean decode: the tag mismatch must force a fresh decode, so
  // the corrupted instruction executes (and is detected) exactly as on the
  // threaded engine.
  const casm_::Image image = checked_sum_loop();
  RunResult results[2];
  std::uint64_t tampered_misses = 0;
  for (const Engine engine : {Engine::kSwitch, Engine::kThreaded}) {
    Cpu cpu(engine_config(engine), image);
    OneShotTamper tamper(/*trigger=*/9, /*mask=*/1U << 11);  // mid-loop fetch
    cpu.fetch_path().set_bus_tamper(&tamper);
    results[engine == Engine::kSwitch ? 0 : 1] = cpu.run();
    if (engine == Engine::kSwitch) tampered_misses = cpu.predecode_misses();
  }
  EXPECT_EQ(results[0].reason, ExitReason::kMonitorTerminated);
  expect_results_identical(results[0], results[1]);
  // A clean run over the same fetches (the terminating instruction included)
  // decodes one word fewer: the tampered word missed its slot's clean tag.
  CpuConfig capped = engine_config(Engine::kSwitch);
  capped.max_instructions = results[0].instructions + 1;
  Cpu clean(capped, image);
  clean.run();
  EXPECT_EQ(tampered_misses, clean.predecode_misses() + 1);
}

TEST(PredecodeCache, PostIdFaultMatchesThreaded) {
  // The post-ID XOR rewrites the word *after* the hash saw it; the predecode
  // slot is keyed by the pipeline's post-fault word, so both engines must
  // agree on the (undetected) wrong-output outcome.
  const casm_::Image image = checked_sum_loop();
  RunResult results[2];
  for (const Engine engine : {Engine::kSwitch, Engine::kThreaded}) {
    Cpu cpu(engine_config(engine), image);
    cpu.set_post_id_fault({4, 1U << 16});
    results[engine == Engine::kSwitch ? 0 : 1] = cpu.run();
  }
  EXPECT_EQ(results[0].iht.mismatches, 0U);  // escaped the monitor (§3.2)
  expect_results_identical(results[0], results[1]);
}

std::uint64_t counter_in(const std::vector<std::pair<std::string, std::uint64_t>>& delta,
                         std::string_view name) {
  for (const auto& [key, value] : delta) {
    if (key == name) return value;
  }
  return 0;
}

TEST(PredecodeCache, CountersCoverOnlySteppedInstructions) {
  const casm_::Image image = checked_sum_loop();
  {
    // A threaded run() never steps, so it never builds or reads the table
    // and publishes no predecode counters.
    Cpu cpu(engine_config(Engine::kThreaded), image);
    cpu.run();
    EXPECT_EQ(cpu.predecode_lookups(), 0U);
    const std::vector<std::uint64_t> before = obs::counter_values();
    cpu.publish_metrics();
    const auto delta = obs::counter_delta(before);
    EXPECT_EQ(counter_in(delta, "engine.predecode.hits"), 0U);
    EXPECT_EQ(counter_in(delta, "engine.predecode.misses"), 0U);
    EXPECT_GT(counter_in(delta, "engine.instructions"), 0U);
  }
  {
    // A switch run looks up every instruction it fetches: all that retired
    // plus the final sys_exit, which is decoded but ends the run in ID.
    Cpu cpu(engine_config(Engine::kSwitch), image);
    const RunResult r = cpu.run();
    EXPECT_EQ(cpu.predecode_lookups(), r.instructions + 1);
    const std::vector<std::uint64_t> before = obs::counter_values();
    cpu.publish_metrics();
    const auto delta = obs::counter_delta(before);
    const std::uint64_t hits = counter_in(delta, "engine.predecode.hits");
    const std::uint64_t misses = counter_in(delta, "engine.predecode.misses");
    EXPECT_EQ(hits + misses, r.instructions + 1);
    EXPECT_EQ(misses, cpu.predecode_misses());
    EXPECT_GT(hits, misses);  // the loop body decodes once and hits after
  }
}

TEST(Monitoring, GprAndMemoryInspection) {
  Asm a;
  a.func("main");
  a.li(kT3, 77);
  a.sys_exit(0);
  const casm_::Image image = a.finalize();
  Cpu cpu(CpuConfig{}, image);
  cpu.run();
  EXPECT_EQ(cpu.gpr(kT3), 77U);
  EXPECT_FALSE(cpu.running());
}

// A program long enough to cut mid-stream, with memory writes (snapshot
// delta pages), console output and a self-check (both live in RunResult, so
// a restore that lost either would fail the equality below).
casm_::Image snapshot_program() {
  Asm a;
  a.data_symbol("acc");
  a.data_word(0);
  a.func("main");
  a.la(kT2, "acc");
  a.li(kT0, 30);
  Label loop = a.bound_label();
  a.lw(kT1, 0, kT2);
  a.addu(kT1, kT1, kT0);
  a.sw(kT1, 0, kT2);
  a.addiu(kT0, kT0, -1);
  a.bnez(kT0, loop);
  a.lw(kA0, 0, kT2);
  a.sys(casm_::Sys::kPutInt);
  a.check_eq(kA0, 465);
  a.sys_exit(0);
  return a.finalize();
}

TEST(Snapshot, RestoredRunMatchesUninterruptedRun) {
  // The checkpoint contract at CPU granularity: stepping K instructions,
  // saving a Snapshot, restoring it into a *fresh* CPU and running must
  // produce a RunResult bit-identical to the uninterrupted run — for every
  // engine, with and without the monitor, with and without the I-cache.
  const casm_::Image image = snapshot_program();
  for (const Engine engine : {Engine::kSwitch, Engine::kThreaded}) {
    for (const bool monitoring : {false, true}) {
      for (const bool icache : {false, true}) {
        CpuConfig config;
        config.engine = engine;
        config.monitoring = monitoring;
        config.cic.iht_entries = 8;
        config.icache.enabled = icache;
        const LoadedImage loaded = preload_image(config, image);
        Cpu straight(config, image, &loaded);
        const RunResult want = straight.run();
        ASSERT_EQ(want.reason, ExitReason::kExit);
        ASSERT_EQ(want.console, "465");

        for (const std::uint64_t cut : {1, 17, 64, 140}) {
          Cpu prefix(config, image, &loaded);
          while (prefix.instructions_retired() < cut) {
            ASSERT_FALSE(prefix.step().has_value()) << "program shorter than cut " << cut;
          }
          Snapshot snapshot;
          prefix.save_snapshot(&snapshot);
          Cpu resumed(config, image, &loaded);
          resumed.restore_snapshot(snapshot);
          const RunResult got = resumed.run();
          EXPECT_TRUE(got == want)
              << "engine " << engine_name(engine) << ", monitor " << monitoring << ", icache "
              << icache << ", cut at " << cut << ": console '" << got.console << "' vs '"
              << want.console << "', " << got.instructions << " vs " << want.instructions
              << " instructions, " << got.cycles << " vs " << want.cycles << " cycles";
        }
      }
    }
  }
}

TEST(Snapshot, PreloadedImageMatchesFreshConstruction) {
  // Trials read the program through a shared immutable post-loader image;
  // that COW path must be invisible next to the classic per-CPU loader.
  const casm_::Image image = snapshot_program();
  for (const bool monitoring : {false, true}) {
    CpuConfig config;
    config.monitoring = monitoring;
    config.cic.iht_entries = 8;
    Cpu classic(config, image);
    const LoadedImage loaded = preload_image(config, image);
    Cpu shared_a(config, image, &loaded);
    Cpu shared_b(config, image, &loaded);  // the base serves many CPUs at once
    const RunResult want = classic.run();
    EXPECT_TRUE(shared_a.run() == want) << "monitor " << monitoring;
    EXPECT_TRUE(shared_b.run() == want) << "monitor " << monitoring;
  }
}

TEST(Snapshot, SnapshotZeroRestoresToFreshState) {
  // Snapshot 0 (taken before the first step) restored into a CPU that has
  // already diverged must bring it back to the clean start.
  const casm_::Image image = snapshot_program();
  CpuConfig config;
  config.monitoring = true;
  config.cic.iht_entries = 8;
  const LoadedImage loaded = preload_image(config, image);
  Cpu reference(config, image, &loaded);
  const RunResult want = reference.run();

  Cpu cpu(config, image, &loaded);
  Snapshot zero;
  cpu.save_snapshot(&zero);
  for (int i = 0; i < 25; ++i) ASSERT_FALSE(cpu.step().has_value());
  cpu.memory().write32(0x9000, 0xDEAD);  // dirty a page the program never uses
  cpu.restore_snapshot(zero);
  EXPECT_EQ(cpu.instructions_retired(), 0U);
  EXPECT_EQ(cpu.memory().read32(0x9000), 0U);
  EXPECT_TRUE(cpu.run() == want);
}

}  // namespace
}  // namespace cicmon::cpu
