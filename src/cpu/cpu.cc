#include "cpu/cpu.h"

#include <algorithm>

#include "cpu/snapshot.h"
#include "obs/metrics.h"
#include "support/bitops.h"
#include "support/error.h"

namespace cicmon::cpu {
namespace {

Engine g_default_engine =
#ifdef NDEBUG
    Engine::kThreaded;
#else
    Engine::kSwitch;
#endif

constexpr unsigned kV0 = 2;
constexpr unsigned kA0 = 4;
constexpr unsigned kA1 = 5;

std::size_t sp(uop::SpecialReg r) { return static_cast<std::size_t>(r); }

// Structural check that the shared IF program is exactly the canonical
// Figure 1 shape (plus the Figure 3(b) monitoring tail when monitored).
// Checked once at construction; a match lets the fetch stage run as
// straight-line code with identical effects on temps and special registers.
bool is_canonical_fetch(const std::vector<uop::Uop>& fetch, bool monitored) {
  using K = uop::UopKind;
  using S = uop::SpecialReg;
  using G = uop::GuardKind;
  if (fetch.size() != (monitored ? 11U : 6U)) return false;
  const auto plain = [](const uop::Uop& op, K kind) {
    return op.kind == kind && op.stage == uop::Stage::kIF && op.guard == G::kAlways;
  };
  const uop::Uop* op = fetch.data();
  if (!(plain(op[0], K::kReadSpecial) && op[0].special == S::kCpc && op[0].dst == 0)) return false;
  if (!(plain(op[1], K::kFetchInstr) && op[1].dst == 1 && op[1].src_a == 0)) return false;
  if (!(plain(op[2], K::kWriteSpecial) && op[2].special == S::kIReg && op[2].src_a == 1)) return false;
  if (!(plain(op[3], K::kImm) && op[3].imm_kind == uop::ImmKind::kConst && op[3].literal == 4 &&
        op[3].dst == 2)) return false;
  if (!(plain(op[4], K::kAlu) && op[4].alu == uop::AluOp::kAdd && op[4].src_a == 0 &&
        op[4].src_b == 2 && op[4].dst == 3)) return false;
  if (!(plain(op[5], K::kWriteSpecial) && op[5].special == S::kCpc && op[5].src_a == 3)) return false;
  if (!monitored) return true;
  using MT = uop::MonitorTemps;
  if (!(plain(op[6], K::kReadSpecial) && op[6].special == S::kSta && op[6].dst == MT::kStartIf))
    return false;
  if (!(op[7].kind == K::kWriteSpecial && op[7].special == S::kSta && op[7].src_a == 0 &&
        op[7].guard == G::kIfZero && op[7].guard_tmp == MT::kStartIf)) return false;
  if (!(plain(op[8], K::kReadSpecial) && op[8].special == S::kRhash && op[8].dst == MT::kOldHash))
    return false;
  if (!(plain(op[9], K::kHashStep) && op[9].dst == MT::kNewHash && op[9].src_a == MT::kOldHash &&
        op[9].src_b == 1)) return false;
  if (!(plain(op[10], K::kWriteSpecial) && op[10].special == S::kRhash &&
        op[10].src_a == MT::kNewHash)) return false;
  return true;
}

}  // namespace

Engine default_engine() { return g_default_engine; }

void set_default_engine(Engine engine) { g_default_engine = engine; }

std::string_view engine_name(Engine engine) {
  return engine == Engine::kThreaded ? "threaded" : "switch";
}

std::string_view exit_reason_name(ExitReason reason) {
  switch (reason) {
    case ExitReason::kExit: return "exit";
    case ExitReason::kMonitorTerminated: return "monitor-terminated";
    case ExitReason::kIllegalInstruction: return "illegal-instruction";
    case ExitReason::kWildPc: return "wild-pc";
    case ExitReason::kSelfCheckFailed: return "self-check-failed";
    case ExitReason::kWatchdog: return "watchdog";
  }
  return "?";
}

Cpu::Cpu(const CpuConfig& config, const casm_::Image& image)
    : Cpu(config, image, nullptr) {}

Cpu::Cpu(const CpuConfig& config, const casm_::Image& image, const LoadedImage* loaded)
    : config_(config), memory_(), fetch_(&memory_, config.icache) {
  if (loaded != nullptr) {
    // Preloaded path: share the spec, its fused table and the FHT, and read
    // memory through the frozen page base (copy-on-write) — no loader, no
    // hash recomputation. Bit-identical to the loading path below.
    attach_loaded(*loaded);
  } else {
    auto spec = std::make_shared<uop::IsaUopSpec>(uop::build_isa_uops());
    if (config_.monitoring) {
      uop::embed_monitoring(spec.get());
      cic_.emplace(config_.cic);
      os::LoadedProgram program = os::os_load(image, &memory_, cic_->hash_unit());
      os_.emplace(config_.os, std::move(program.fht));
      special_[sp(uop::SpecialReg::kRhash)] = cic_->rhash_init();
    } else {
      memory_.load_image(image);
    }
    spec_ = std::move(spec);
  }
  special_[sp(uop::SpecialReg::kCpc)] = image.entry;
  gpr_[isa::kSp] = casm_::kStackTop;
  gpr_[isa::kGp] = image.data_base;
  text_base_ = image.text_base;
  text_end_ = image.text_end();
  fast_fetch_ = is_canonical_fetch(spec_->fetch, spec_->monitoring_embedded);
  if (config_.engine == Engine::kThreaded && fast_fetch_) {
    if (fused_ == nullptr) {
      fused_ = std::make_shared<const uop::FusedTable>(uop::build_fused_table(*spec_));
    }
    // A campaign trial starts warm: its cache is an overlay on the shared
    // block base (null for the loading constructor and a bare preload).
    tcache_ = std::make_unique<uop::TranslationCache>(
        text_base_, text_end_, loaded != nullptr ? loaded->blocks : nullptr);
    threaded_ = true;
  }
}

Cpu::~Cpu() = default;

std::uint32_t Cpu::special(uop::SpecialReg reg) const { return special_[sp(reg)]; }

std::uint32_t Cpu::read_special(uop::SpecialReg r) { return special_[sp(r)]; }

void Cpu::write_special(uop::SpecialReg r, std::uint32_t value) { special_[sp(r)] = value; }

void Cpu::reset_special(uop::SpecialReg r) {
  // RHASH resets to the HASHFU's initial state (the per-process key for the
  // keyed unit); everything else resets to zero.
  special_[sp(r)] =
      (r == uop::SpecialReg::kRhash && cic_) ? cic_->rhash_init() : 0;
}

std::uint32_t Cpu::read_gpr(unsigned index) { return gpr_[index & 31U]; }

void Cpu::write_gpr(unsigned index, std::uint32_t value) {
  if ((index & 31U) == 0) return;  // r0 is hard-wired to zero
  gpr_[index & 31U] = value;
}

std::uint32_t Cpu::fetch_instr(std::uint32_t address) { return fetch_.fetch(address); }

std::uint32_t Cpu::load(std::uint32_t address, uop::MemWidth width, bool sign) {
  switch (width) {
    case uop::MemWidth::kByte: {
      const std::uint8_t v = memory_.read8(address);
      return sign ? static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int8_t>(v)))
                  : v;
    }
    case uop::MemWidth::kHalf: {
      const std::uint16_t v = memory_.read16(address);
      return sign
                 ? static_cast<std::uint32_t>(static_cast<std::int32_t>(static_cast<std::int16_t>(v)))
                 : v;
    }
    case uop::MemWidth::kWord:
      return memory_.read32(address);
  }
  return 0;
}

void Cpu::store(std::uint32_t address, uop::MemWidth width, std::uint32_t value) {
  if (checkpoint_.valid) {
    std::uint32_t old = 0;
    switch (width) {
      case uop::MemWidth::kByte: old = memory_.read8(address); break;
      case uop::MemWidth::kHalf: old = memory_.read16(address); break;
      case uop::MemWidth::kWord: old = memory_.read32(address); break;
    }
    checkpoint_.store_log.push_back({address, width, old});
  }
  switch (width) {
    case uop::MemWidth::kByte:
      memory_.write8(address, static_cast<std::uint8_t>(value));
      break;
    case uop::MemWidth::kHalf:
      memory_.write16(address, static_cast<std::uint16_t>(value));
      break;
    case uop::MemWidth::kWord:
      memory_.write32(address, value);
      break;
  }
}

std::uint32_t Cpu::hash_step(std::uint32_t old_hash, std::uint32_t instr_word) {
  return cic_->hash_step(old_hash, instr_word);
}

uop::IhtLookupResult Cpu::iht_lookup(std::uint32_t start, std::uint32_t end,
                                     std::uint32_t hash) {
  if (observer_) observer_(start, end);
  return cic_->lookup(start, end, hash);
}

void Cpu::raise_monitor_exception(std::uint8_t code) { pending_exc_ = code; }

void Cpu::set_pc(std::uint32_t target) {
  special_[sp(uop::SpecialReg::kCpc)] = target;
  pc_redirected_ = true;
}

void Cpu::syscall() {
  const auto code = static_cast<casm_::Sys>(gpr_[kV0]);
  const std::uint32_t a0 = gpr_[kA0];
  const std::uint32_t a1 = gpr_[kA1];
  switch (code) {
    case casm_::Sys::kExit:
      terminate(ExitReason::kExit, a0);
      break;
    case casm_::Sys::kPutInt:
      result_.console += std::to_string(static_cast<std::int32_t>(a0));
      break;
    case casm_::Sys::kPutChar:
      result_.console += static_cast<char>(a0);
      break;
    case casm_::Sys::kCheck:
      if (a0 != a1) {
        result_.check_observed = a0;
        result_.check_expected = a1;
        terminate(ExitReason::kSelfCheckFailed, 1);
      }
      break;
  }
}

void Cpu::illegal_instruction() {
  // In recovery mode the decode trap is just another detection point inside
  // the checkpointed region: retry before giving up (a transient fetch fault
  // refetches a valid instruction).
  if (try_rollback()) return;
  terminate(ExitReason::kIllegalInstruction, 0);
}

void Cpu::terminate(ExitReason reason, std::uint32_t code) {
  running_ = false;
  result_.reason = reason;
  result_.exit_code = code;
  if (cic_) result_.iht = cic_->iht().stats();
  if (os_) result_.os = os_->stats();
}

void Cpu::checkpoint_block(std::uint32_t block_start) {
  checkpoint_.valid = true;
  checkpoint_.block_start = block_start;
  checkpoint_.gpr = gpr_;
  checkpoint_.hi = special_[sp(uop::SpecialReg::kHi)];
  checkpoint_.lo = special_[sp(uop::SpecialReg::kLo)];
  checkpoint_.console_length = result_.console.size();
  checkpoint_.store_log.clear();
}

bool Cpu::try_rollback() {
  if (!config_.recovery.enabled || !checkpoint_.valid) return false;
  if (checkpoint_.block_start == retry_block_) {
    if (consecutive_retries_ >= config_.recovery.max_retries_per_block) return false;
    ++consecutive_retries_;
  } else {
    retry_block_ = checkpoint_.block_start;
    consecutive_retries_ = 1;
  }

  // Undo the block's memory effects (reverse order), restore registers and
  // console output, refetch through a cold I-cache, and restart the block.
  for (auto it = checkpoint_.store_log.rbegin(); it != checkpoint_.store_log.rend(); ++it) {
    switch (it->width) {
      case uop::MemWidth::kByte:
        memory_.write8(it->address, static_cast<std::uint8_t>(it->old_value));
        break;
      case uop::MemWidth::kHalf:
        memory_.write16(it->address, static_cast<std::uint16_t>(it->old_value));
        break;
      case uop::MemWidth::kWord:
        memory_.write32(it->address, it->old_value);
        break;
    }
  }
  gpr_ = checkpoint_.gpr;
  special_[sp(uop::SpecialReg::kHi)] = checkpoint_.hi;
  special_[sp(uop::SpecialReg::kLo)] = checkpoint_.lo;
  result_.console.resize(checkpoint_.console_length);
  if (mem::ICache* icache = fetch_.icache()) icache->invalidate_all();

  special_[sp(uop::SpecialReg::kCpc)] = checkpoint_.block_start;
  special_[sp(uop::SpecialReg::kSta)] = 0;
  special_[sp(uop::SpecialReg::kRhash)] = cic_->rhash_init();
  checkpoint_.valid = false;  // a fresh checkpoint is taken on re-entry
  result_.cycles += config_.recovery.recovery_cycles;
  result_.monitor_cycles += config_.recovery.recovery_cycles;
  ++result_.recoveries;
  rolled_back_ = true;
  return true;
}

void Cpu::handle_pending_monitor_exception() {
  if (!pending_exc_.has_value()) return;
  const std::uint8_t code = *pending_exc_;
  pending_exc_.reset();
  const cic::LookupKey key = cic_->last_lookup();
  const os::ExceptionOutcome outcome = (code == uop::kExcHashMiss)
                                           ? os_->handle_hash_miss(key, &cic_->iht())
                                           : os_->handle_hash_mismatch(key);
  result_.cycles += outcome.cycles;
  result_.monitor_cycles += outcome.cycles;
  if (outcome.terminate) {
    // Recovery mode (§7 future work): attempt a block rollback before
    // giving up — transient fetch faults vanish on re-execution.
    if (try_rollback()) return;
    result_.monitor_cause = outcome.cause;
    terminate(ExitReason::kMonitorTerminated, 0);
  }
}

Cpu::IfLatch Cpu::fetch_and_latch(std::uint32_t pc) {
  // Straight-line equivalent of the canonical IF program, verified against
  // the spec at construction (fast_fetch_), up to the RHASH fold. Effects
  // (special-register traffic, fetch calls) match the interpreter bit for
  // bit; the temps it would write come from write_if_temps.
  IfLatch f;
  f.word = fetch_.fetch(pc);                      // instr = IMAU.read(current_pc)
  special_[sp(uop::SpecialReg::kIReg)] = f.word;  // IReg.write(instr)
  special_[sp(uop::SpecialReg::kCpc)] = pc + 4;   // CPC.inc()
  if (spec_->monitoring_embedded) {
    // Figure 3(b): latch the block start.
    f.sta_before = special_[sp(uop::SpecialReg::kSta)];
    if (f.sta_before == 0) special_[sp(uop::SpecialReg::kSta)] = pc;
  }
  return f;
}

void Cpu::fold_hash(IfLatch& f) {
  // Figure 3(b): fold the fetched word into the running hash.
  f.old_hash = special_[sp(uop::SpecialReg::kRhash)];
  f.new_hash = cic_->hash_step(f.old_hash, f.word);
  special_[sp(uop::SpecialReg::kRhash)] = f.new_hash;
}

Cpu::IfLatch Cpu::fetch_and_hash(std::uint32_t pc) {
  IfLatch f = fetch_and_latch(pc);
  if (spec_->monitoring_embedded) fold_hash(f);
  return f;
}

void Cpu::write_if_temps(std::uint32_t pc, const IfLatch& f) {
  auto& t = ctx_.temps;
  t[0] = pc;  // current_pc
  t[1] = f.word;
  t[2] = 4;
  t[3] = pc + 4;
  if (spec_->monitoring_embedded) {
    t[uop::MonitorTemps::kStartIf] = f.sta_before;
    t[uop::MonitorTemps::kOldHash] = f.old_hash;
    t[uop::MonitorTemps::kNewHash] = f.new_hash;
  }
}

void Cpu::charge_icache_stall(std::uint64_t& clock) {
  if (const std::uint64_t stall = fetch_.take_stall_cycles(); stall != 0) {
    clock += stall;
    result_.icache_stall_cycles += stall;
  }
}

void Cpu::run_fetch_stage() {
  const std::uint32_t pc = special_[sp(uop::SpecialReg::kCpc)];
  if (fast_fetch_) {
    write_if_temps(pc, fetch_and_hash(pc));
  } else {
    uop::execute_ops(std::span<const uop::Uop>(spec_->fetch), ctx_, *this);
  }
  charge_icache_stall(result_.cycles);
}

std::uint32_t Cpu::past_id(std::uint32_t word) const {
  // The hash saw the clean word; execution proceeds on the flipped one — a
  // fault in a latch downstream of the check point.
  if (post_id_fault_.has_value() && result_.instructions == post_id_fault_->index) {
    word ^= post_id_fault_->xor_mask;
  }
  return word;
}

template <typename Clock>
void Cpu::account_hazards(const isa::Hazards& h, bool redirected, std::uint64_t& stalls,
                          Clock now) {
  // Redirect bubble: the front end refetches after a control transfer
  // resolves in ID.
  if (redirected && config_.timing.frontend_stages > 1) {
    const std::uint64_t bubble = config_.timing.frontend_stages - 1;
    stalls += bubble;
    result_.branch_bubbles += bubble;
  }
  // Load-use: the previous instruction was a load whose destination this
  // instruction consumes in ID/EX.
  if (prev_load_dst_ != 0 && (prev_load_dst_ == h.early_a || prev_load_dst_ == h.early_b)) {
    stalls += config_.timing.load_use_stall;
    result_.load_use_stalls += config_.timing.load_use_stall;
  }
  prev_load_dst_ = h.load_dst;
  if (h.muldiv_lat != 0) {
    hilo_ready_cycle_ =
        now() + (h.muldiv_lat == 2 ? config_.timing.div_latency : config_.timing.mult_latency);
  }
  if (h.is_mfhilo) {
    if (const std::uint64_t t = now(); t < hilo_ready_cycle_) {
      const std::uint64_t stall = hilo_ready_cycle_ - t;
      stalls += stall;
      result_.muldiv_stalls += stall;
    }
  }
}

void Cpu::retire(const isa::Hazards& h) {
  ++result_.instructions;
  ++result_.cycles;
  account_hazards(h, pc_redirected_, result_.cycles, [this] { return result_.cycles; });
}

std::optional<RunResult> Cpu::step() {
  if (!running_) return finish_result();

  if (result_.instructions >= config_.max_instructions) {
    terminate(ExitReason::kWatchdog, 0);
    return finish_result();
  }

  const std::uint32_t addr = special_[sp(uop::SpecialReg::kCpc)];
  if (addr < text_base_ || addr >= text_end_ || (addr & 3U) != 0) {
    terminate(ExitReason::kWildPc, 0);
    return finish_result();
  }

  ctx_.instr_addr = addr;

  // A zero STA means this fetch opens a new check region: checkpoint the
  // architectural state so the region can be rolled back (recovery mode).
  if (config_.recovery.enabled && config_.monitoring &&
      special_[sp(uop::SpecialReg::kSta)] == 0) {
    checkpoint_block(addr);
  }

  // --- IF: shared fetch program (hash step included when monitored) ---
  run_fetch_stage();
  const std::uint32_t word = past_id(ctx_.temps[1]);  // the word the pipeline carries

  // Predecode cache: tagged by the word the pipeline actually carries, so
  // any tampered or refetched-differently word misses and decodes fresh.
  // Sized here, not at construction: only step() reads it.
  if (predecode_.empty()) predecode_.resize((text_end_ - text_base_) / 4);
  Predecoded& slot = predecode_[(addr - text_base_) / 4];
  ++predecode_lookups_;
  if (slot.program == nullptr || slot.word != word) {
    ++predecode_misses_;
    slot.word = word;
    slot.instr = isa::decode(word);
    slot.hazards = isa::hazards_of(slot.instr);
    slot.program = &spec_->program(slot.instr.mnemonic);
  }
  ctx_.instr = slot.instr;

  if (exec_stages(slot.program, slot.hazards) == ExecStatus::kTerminated) {
    return finish_result();
  }
  return std::nullopt;  // retired or rolled back; either way, still running
}

Cpu::ExecStatus Cpu::exec_stages(const uop::InstrUops* program, isa::Hazards hazards) {
  // PPC tracks the instruction occupying ID (Figure 4 reads the block's end
  // address from it).
  special_[sp(uop::SpecialReg::kPpc)] = ctx_.instr_addr;

  pc_redirected_ = false;

  uop::execute_ops(program->stage(uop::Stage::kID), ctx_, *this);
  if (pending_exc_.has_value()) handle_pending_monitor_exception();
  if (!running_) return ExecStatus::kTerminated;
  if (rolled_back_) {
    // The faulting block was rewound; this instruction never happened.
    rolled_back_ = false;
    return ExecStatus::kRolledBack;
  }

  uop::execute_ops(program->stage(uop::Stage::kEX), ctx_, *this);
  if (!running_) return ExecStatus::kTerminated;
  if (const auto mem_ops = program->stage(uop::Stage::kMEM); !mem_ops.empty()) {
    uop::execute_ops(mem_ops, ctx_, *this);
  }
  if (const auto wb_ops = program->stage(uop::Stage::kWB); !wb_ops.empty()) {
    uop::execute_ops(wb_ops, ctx_, *this);
  }
  if (!running_) return ExecStatus::kTerminated;

  retire(hazards);
  return ExecStatus::kRetired;
}

RunResult Cpu::finish_result() {
  if (cic_) result_.iht = cic_->iht().stats();
  if (os_) result_.os = os_->stats();
  return result_;
}

void Cpu::publish_metrics() const {
  static const obs::CounterId k_runs = obs::counter("engine.runs");
  static const obs::CounterId k_instructions = obs::counter("engine.instructions");
  static const obs::CounterId k_predecode_misses = obs::counter("engine.predecode.misses");
  static const obs::CounterId k_predecode_hits = obs::counter("engine.predecode.hits");
  static const obs::CounterId k_tcache_hits = obs::counter("engine.tcache.hits");
  static const obs::CounterId k_tcache_translations = obs::counter("engine.tcache.translations");
  static const obs::CounterId k_tcache_invalidations = obs::counter("engine.tcache.invalidations");
  static const obs::CounterId k_tcache_mismatches = obs::counter("engine.tcache.mismatches");
  obs::bump(k_runs);
  obs::bump(k_instructions, result_.instructions);
  if (!predecode_.empty()) {
    // The table exists only once step() ran; every lookup is a hit or a miss.
    obs::bump(k_predecode_misses, predecode_misses_);
    obs::bump(k_predecode_hits, predecode_lookups_ - predecode_misses_);
  }
  if (tcache_ != nullptr) {
    static const obs::CounterId k_chain_follows = obs::counter("engine.chain.follows");
    static const obs::CounterId k_chain_breaks = obs::counter("engine.chain.breaks");
    static const obs::CounterId k_chain_severed = obs::counter("engine.chain.severed");
    const uop::TranslationCache::Stats& stats = tcache_->stats();
    obs::bump(k_tcache_hits, stats.hits);
    obs::bump(k_tcache_translations, stats.translations);
    obs::bump(k_tcache_invalidations, stats.invalidations);
    obs::bump(k_tcache_mismatches, tcache_mismatches_);
    obs::bump(k_chain_follows, chain_follows_);
    obs::bump(k_chain_breaks, chain_breaks_);
    obs::bump(k_chain_severed, stats.chain_severed);
  }
}

bool Cpu::at_cut() {
  if (result_.instructions < limit_) return false;
  if (limit_ >= config_.max_instructions) terminate(ExitReason::kWatchdog, 0);
  return true;
}

std::optional<RunResult> Cpu::stop_result() {
  // Paused: result_.iht/.os stay as step() leaves them mid-run, unsynced —
  // snapshots copy result_, so syncing here would make a paused machine
  // differ from a stepped one.
  if (running_) return std::nullopt;
  return finish_result();
}

std::optional<RunResult> Cpu::run_until(std::uint64_t n) {
  limit_ = std::min(n, config_.max_instructions);
  if (threaded_) return run_threaded();
  while (running_ && !at_cut()) step();
  return stop_result();
}

RunResult Cpu::run() { return *run_until(config_.max_instructions); }

// --- Threaded engine -------------------------------------------------------
//
// One fused handler replaces the per-uop interpretation of one instruction.
// Every handler runs the same prologue as step() — the cut, checkpoint,
// the real fetch path (hash step, bus, I-cache), stall accounting, post-ID
// fault — then compares the word the pipeline carries against the entry's
// translation tag. A mismatch means the text changed since translation (bus
// tamper, cache-resident flip, memory rewrite, post-ID latch fault): the
// block is invalidated and the fetched word executes through the interpreter,
// so every fault path is bit-identical with the switch engine.

void Cpu::monitor_block_end() {
  // The Figure 4 monitoring head of a flow-control instruction, verified
  // structurally by the classifier against the embedding pass:
  //   <found, match> = IHTbb.lookup(<STA, PPC, RHASH>)
  //   exception0 = [found == 0]; exception1 = [found && !match]
  //   STA.reset(); RHASH.reset()
  const std::uint32_t start = special_[sp(uop::SpecialReg::kSta)];
  const std::uint32_t end = special_[sp(uop::SpecialReg::kPpc)];
  const std::uint32_t hash = special_[sp(uop::SpecialReg::kRhash)];
  const uop::IhtLookupResult lr = iht_lookup(start, end, hash);
  if (!lr.found) {
    pending_exc_ = uop::kExcHashMiss;
  } else if (!lr.match) {
    pending_exc_ = uop::kExcHashMismatch;
  }
  special_[sp(uop::SpecialReg::kSta)] = 0;
  special_[sp(uop::SpecialReg::kRhash)] = cic_->rhash_init();
}

Cpu::FusedFlow Cpu::tampered_entry(const uop::TransEntry& e, IfLatch f, std::uint32_t word,
                                   bool batched) {
  // The fetched word diverged from the translation tag. Execute the word the
  // pipeline actually carries through the interpreter (its program carries
  // the monitoring extension, so flow control still checks the block, and
  // may read the IF temps), then return to the block loop, which
  // retranslates from current text. A batched entry first folds the prefix
  // before it into result_ and RHASH (this entry has not retired), then
  // hashes the word it really fetched, which no translation-time fold covers.
  if (batched) {
    ctx_.instr_addr = e.addr;
    flush_batch(&e);
    if (spec_->monitoring_embedded) fold_hash(f);
  }
  write_if_temps(e.addr, f);
  ++tcache_mismatches_;
  tcache_->invalidate(cur_block_start_);
  ctx_.instr = isa::decode(word);
  return exec_stages(&spec_->program(ctx_.instr.mnemonic), isa::hazards_of(ctx_.instr)) ==
                 ExecStatus::kTerminated
             ? FusedFlow::kDone
             : FusedFlow::kRestart;
}

uop::TranslatedBlock* Cpu::translate(std::uint32_t addr) {
  // Translation peeks words straight out of memory: no bus traffic, no
  // I-cache fills, no RHASH update (the region folds it precomputes touch no
  // register). All architectural fetch effects happen per entry inside
  // fused_step, through the real fetch path.
  return tcache_->translate(addr, *spec_, *fused_, cic_ ? &cic_->hash_unit() : nullptr,
                            [this](std::uint32_t a) { return memory_.read32(a); });
}

void Cpu::flush_batch(const uop::TransEntry* next) {
  // Entries [batch_base_, next) retired through the batched handlers: one
  // instruction and one base cycle each, plus the dynamic stalls (I-cache,
  // load-use, muldiv) accumulated in batch_extra_. The stat breakdown
  // counters (icache_stall_cycles, load_use_stalls, muldiv_stalls) were
  // bumped as they happened — only the aggregates were deferred. So was the
  // RHASH fold: the batch opened its check region at the block start and
  // every word matched its tag, so RHASH is the translation-time fold through
  // the last batched tag (0 == RHASH unmonitored, where nothing folds).
  const std::uint64_t retired = static_cast<std::uint64_t>(next - batch_base_);
  if (retired != 0) special_[sp(uop::SpecialReg::kRhash)] = next[-1].rhash;
  result_.instructions += retired;
  result_.cycles += retired + batch_extra_;
  batch_base_ = next;
  batch_extra_ = 0;
}

std::uint64_t Cpu::batched_cycles(const uop::TransEntry* e) const {
  // The cycle count the unbatched path would show right after entry `e`
  // retires (base cycle per batched entry, dynamic stalls in batch_extra_) —
  // the clock the muldiv latency model runs on.
  return result_.cycles + static_cast<std::uint64_t>(e - batch_base_ + 1) + batch_extra_;
}

template <uop::FusedKind K, bool Batched>
Cpu::FusedFlow Cpu::fused_step(const uop::TransEntry& e) {
  using FK = uop::FusedKind;
  static_assert(!Batched || !uop::is_block_terminator(K));

  // Prologue: step()'s exact per-instruction order. Mid-block entries skip
  // the wild-PC check only — non-terminators never redirect, and translation
  // never crosses the text end, so e.addr is always a valid text address.
  // Batched entries also skip the cut, recovery and post-ID checks (the
  // per-block precheck in run_threaded proved none can fire inside the
  // straight-line run) and the instr_addr/PPC/redirect stores (straight-line
  // kinds never redirect, raise, or read them). The real fetch path and the
  // tag compare are never skipped: tamper safety stays per dynamic
  // instruction.
  if constexpr (!Batched) {
    // The cut (a pause, or the watchdog) stops the run before this
    // instruction changes any state.
    if (at_cut()) return FusedFlow::kDone;
    ctx_.instr_addr = e.addr;
    if (config_.recovery.enabled && config_.monitoring &&
        special_[sp(uop::SpecialReg::kSta)] == 0) {
      checkpoint_block(e.addr);
    }
  }
  // IF. e.addr == CPC here: the block loop enters at CPC and every
  // fall-through fetch set CPC = pc + 4. A batched entry defers its RHASH
  // fold to flush_batch.
  const IfLatch f = Batched ? fetch_and_latch(e.addr) : fetch_and_hash(e.addr);
  charge_icache_stall(Batched ? batch_extra_ : result_.cycles);
  const std::uint32_t word = Batched ? f.word : past_id(f.word);
  if (word != e.word) [[unlikely]] return tampered_entry(e, f, word, Batched);

  if constexpr (!Batched) {
    special_[sp(uop::SpecialReg::kPpc)] = e.addr;
    pc_redirected_ = false;
  }

  if constexpr (K == FK::kAluRR) {
    write_gpr(e.dst, uop::alu_eval(e.alu, gpr_[e.a], gpr_[e.b]));
  } else if constexpr (K == FK::kAluRI) {
    write_gpr(e.dst, uop::alu_eval(e.alu, gpr_[e.a], e.imm));
  } else if constexpr (K == FK::kImmWrite) {
    write_gpr(e.dst, e.imm);
  } else if constexpr (K == FK::kLoad) {
    write_gpr(e.dst, load(gpr_[e.a] + e.imm, e.width, e.sign_extend));
  } else if constexpr (K == FK::kStore) {
    store(gpr_[e.a] + e.imm, e.width, gpr_[e.b]);
  } else if constexpr (K == FK::kMulDiv) {
    const uop::HiLo r = uop::muldiv_eval(e.muldiv, gpr_[e.a], gpr_[e.b]);
    special_[sp(uop::SpecialReg::kHi)] = r.hi;
    special_[sp(uop::SpecialReg::kLo)] = r.lo;
  } else if constexpr (K == FK::kHiLoRead) {
    write_gpr(e.dst, special_[e.hilo]);
  } else if constexpr (K == FK::kHiLoWrite) {
    special_[e.hilo] = gpr_[e.a];
  } else if constexpr (K == FK::kBranch2 || K == FK::kBranch1 || K == FK::kJump ||
                       K == FK::kJumpReg) {
    // Flow control: the monitoring head runs first (ID order), then the
    // transfer, then the pending exception resolves before any link write —
    // exactly the interpreter's stage order, so a terminated or rolled-back
    // block never observes the link register update.
    if (spec_->monitoring_embedded) monitor_block_end();
    if constexpr (K == FK::kBranch2) {
      if (uop::alu_eval(e.alu, gpr_[e.a], gpr_[e.b]) != 0) set_pc(e.imm);
    } else if constexpr (K == FK::kBranch1) {
      if (uop::alu_eval(e.alu, gpr_[e.a], 0) != 0) set_pc(e.imm);
    } else if constexpr (K == FK::kJump) {
      set_pc(e.imm);
    } else {
      set_pc(gpr_[e.a]);  // target read before the link write: jalr $r, $r
    }
    if (pending_exc_.has_value()) handle_pending_monitor_exception();
    if (!running_) return FusedFlow::kDone;
    if (rolled_back_) {
      rolled_back_ = false;  // the block was rewound; this instruction never happened
      return FusedFlow::kRestart;
    }
    if (e.link) write_gpr(e.dst, e.addr + 4);
    retire(e.hazards);
    // Direct edges report which way the block exited so the block loop can
    // follow (or install) the matching chain link; the indirect jump-register
    // edge always returns to the loop for a fresh lookup.
    if constexpr (K == FK::kBranch2 || K == FK::kBranch1) {
      return pc_redirected_ ? FusedFlow::kTaken : FusedFlow::kFall;
    } else if constexpr (K == FK::kJump) {
      return FusedFlow::kTaken;
    } else {
      return FusedFlow::kRestart;
    }
  } else if constexpr (K == FK::kSyscall) {
    syscall();
    if (!running_) return FusedFlow::kDone;
    retire(e.hazards);
    return FusedFlow::kRestart;
  } else if constexpr (K == FK::kIllegal) {
    illegal_instruction();  // rolls the block back or terminates
    if (!running_) return FusedFlow::kDone;
    rolled_back_ = false;  // rollback succeeded; the trap never retired
    return FusedFlow::kRestart;
  } else {
    static_assert(K == FK::kGeneric);
    // Unmatched program shape (or a force-terminated block tail): run the
    // instruction through the interpreter, sharing exec_stages with step().
    // A retire without a PC redirect is a fall-through to the next word —
    // the chainable edge resolve_edges precomputed for generic terminators.
    write_if_temps(e.addr, f);
    ctx_.instr = e.instr;
    const ExecStatus status = exec_stages(e.program, e.hazards);
    if (status == ExecStatus::kTerminated) return FusedFlow::kDone;
    if (status == ExecStatus::kRolledBack) return FusedFlow::kRestart;
    return pc_redirected_ ? FusedFlow::kRestart : FusedFlow::kFall;
  }

  // Straight-line kinds retire here and fall through to the next entry. A
  // batched entry charges its stalls to batch_extra_ against the deferred
  // clock (batched_cycles == what result_.cycles would be here); the
  // breakdown counters stay exact either way.
  if constexpr (Batched) {
    account_hazards(e.hazards, /*redirected=*/false, batch_extra_,
                    [&] { return batched_cycles(&e); });
  } else {
    retire(e.hazards);
  }
  return FusedFlow::kNext;
}

std::optional<RunResult> Cpu::run_threaded() {
  // Recovery checkpoints key on "STA == 0 at fetch", a per-instruction
  // predicate the batched prologue elides — recovery runs force the
  // unbatched handlers for every entry.
  const bool unbatched_only = config_.recovery.enabled && config_.monitoring;
  const std::uint32_t rhash_reset = cic_ ? cic_->rhash_init() : 0;
  // A direct-edge block exit whose successor was not yet linked: the link is
  // installed right after the next lookup/translate produces that successor.
  uop::TranslatedBlock* link_from = nullptr;
  bool link_taken = false;
  while (running_ && !at_cut()) {
    const std::uint32_t addr = special_[sp(uop::SpecialReg::kCpc)];
    if (addr < text_base_ || addr >= text_end_ || (addr & 3U) != 0) {
      terminate(ExitReason::kWildPc, 0);
      break;
    }

    uop::TranslatedBlock* block = tcache_->lookup(addr);
    if (block == nullptr) block = translate(addr);
    if (link_from != nullptr) {
      // chain() re-verifies that this block really is the recorded edge
      // target before installing the link.
      tcache_->chain(link_from, link_taken, block);
      link_from = nullptr;
    }

    FusedFlow flow = FusedFlow::kRestart;
    const uop::TransEntry* e;
  enter_block:
    cur_block_start_ = block->start;
    e = block->entries.data();
    // Batched accounting is only valid when nothing can interrupt the
    // straight-line prefix: the cut must not fall inside it or at its end, no
    // post-ID fault may land on one of its dynamic indices, and recovery is
    // off. The terminator always runs unbatched, after the batch is flushed,
    // and re-checks everything against the flushed counters. The strict
    // bound keeps a pause off a batch's end: the instruction before a paused
    // boundary is always unbatched, so PPC and pc_redirected_ hold what
    // step() leaves there. The deferred RHASH
    // fold further needs the block to open its check region (STA clear,
    // RHASH at its reset value; always so unmonitored, where neither is
    // written): a block entered mid-region — after a syscall, a forced
    // 64-entry tail, a tampered word or a snapshot restore — folds per fetch.
    const bool batched =
        !unbatched_only &&
        special_[sp(uop::SpecialReg::kSta)] == 0 &&
        special_[sp(uop::SpecialReg::kRhash)] == rhash_reset &&
        result_.instructions + block->straight_len < limit_ &&
        (!post_id_fault_.has_value() || post_id_fault_->index < result_.instructions ||
         post_id_fault_->index >= result_.instructions + block->straight_len);
    batch_base_ = e;

    {
      // Threaded dispatch: each handler jumps straight to the next entry's
      // handler. Blocks always end in a terminator entry (the translator
      // force-converts capped tails to kGeneric), so ++e never runs off the
      // end. Row 0 holds the unbatched handlers (l_*), row 1 the batched ones
      // (b_*); a batched terminator folds the batch into result_ and jumps to
      // its unbatched handler.
#define CICMON_UNBATCHED_LABEL(kind, terminator) &&l_##kind,
#define CICMON_BATCHED_LABEL(kind, terminator) &&b_##kind,
      static const void* const kLabels[2][uop::kNumFusedKinds] = {
          {CICMON_FUSED_KINDS(CICMON_UNBATCHED_LABEL)},
          {CICMON_FUSED_KINDS(CICMON_BATCHED_LABEL)}};
#undef CICMON_UNBATCHED_LABEL
#undef CICMON_BATCHED_LABEL
      const void* const* labels = kLabels[batched ? 1 : 0];
      goto* labels[static_cast<unsigned>(e->kind)];
#define CICMON_DISPATCH_NEXT                      \
  if (flow == FusedFlow::kNext) {                 \
    ++e;                                          \
    goto* labels[static_cast<unsigned>(e->kind)]; \
  }                                               \
  goto block_done
#define CICMON_BATCHED_true(kind) \
  flush_batch(e);                 \
  goto l_##kind
#define CICMON_BATCHED_false(kind)                   \
  flow = fused_step<uop::FusedKind::kind, true>(*e); \
  CICMON_DISPATCH_NEXT
#define CICMON_HANDLERS(kind, terminator)             \
  l_##kind:                                           \
  flow = fused_step<uop::FusedKind::kind, false>(*e); \
  CICMON_DISPATCH_NEXT;                               \
  b_##kind:                                           \
  CICMON_BATCHED_##terminator(kind);
      CICMON_FUSED_KINDS(CICMON_HANDLERS)
#undef CICMON_HANDLERS
#undef CICMON_BATCHED_false
#undef CICMON_BATCHED_true
#undef CICMON_DISPATCH_NEXT
    block_done:;
    }

    if (flow == FusedFlow::kTaken || flow == FusedFlow::kFall) {
      const bool taken = flow == FusedFlow::kTaken;
      uop::TranslatedBlock* next = taken ? block->taken : block->fall;
      if (next != nullptr && (!next->shared || tcache_->live(next))) {
        // Chain follow: flow straight into the successor, provided it is
        // live in this run's view. A link into an owned block is live by
        // construction (owned blocks sever eagerly); a base block dead in
        // this view keeps its inbound links but is never entered through
        // them. The cut is covered by the per-block
        // precheck plus the unbatched terminator handlers, and the link
        // target was verified to be a text address when the edge was
        // resolved — the outer loop's checks are subsumed, not skipped.
        ++chain_follows_;
        block = next;
        goto enter_block;
      }
      ++chain_breaks_;
      if (taken ? block->has_taken : block->has_fall) {
        link_from = block;
        link_taken = taken;
      }
    }
  }
  return stop_result();
}

}  // namespace cicmon::cpu
