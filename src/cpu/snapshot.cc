#include "cpu/snapshot.h"

#include <utility>

#include "hash/hash_unit.h"
#include "os/loader.h"
#include "support/error.h"
#include "uop/monitor_pass.h"

namespace cicmon::cpu {

void build_spec(const CpuConfig& config, LoadedImage* loaded) {
  auto spec = std::make_shared<uop::IsaUopSpec>(uop::build_isa_uops());
  if (config.monitoring) uop::embed_monitoring(spec.get());
  loaded->fused = std::make_shared<const uop::FusedTable>(uop::build_fused_table(*spec));
  loaded->spec = std::move(spec);
}

LoadedImage preload_image(const CpuConfig& config, const casm_::Image& image) {
  LoadedImage out;
  out.entry = image.entry;
  build_spec(config, &out);
  mem::Memory memory;
  if (config.monitoring) {
    const std::unique_ptr<hash::HashFunctionUnit> unit =
        hash::make_hash_unit(config.cic.hash_kind, config.cic.hash_key);
    os::LoadedProgram program = os::os_load(image, &memory, *unit);
    out.fht = std::move(program.fht);
    out.fht_was_attached = program.fht_was_attached;
  } else {
    memory.load_image(image);
  }
  out.pages = memory.freeze();
  return out;
}

void build_block_base(const CpuConfig& config, const casm_::Image& image,
                      std::span<const std::uint32_t> seeds, LoadedImage* loaded) {
  support::check(loaded->pages != nullptr && loaded->spec != nullptr && loaded->fused != nullptr,
                 "build_block_base: LoadedImage is not preloaded");
  support::check(loaded->spec->monitoring_embedded == config.monitoring,
                 "build_block_base: LoadedImage monitoring does not match the configuration");
  mem::Memory text;
  text.set_base(loaded->pages);
  const std::unique_ptr<hash::HashFunctionUnit> unit =
      config.monitoring ? hash::make_hash_unit(config.cic.hash_kind, config.cic.hash_key)
                        : nullptr;
  loaded->blocks = std::make_shared<const uop::BlockBase>(
      image.text_base, image.text_end(), seeds, *loaded->spec, *loaded->fused, unit.get(),
      [&text](std::uint32_t a) { return text.read32(a); });
}

void Cpu::attach_loaded(const LoadedImage& loaded) {
  support::check(loaded.pages != nullptr && loaded.spec != nullptr,
                 "Cpu: LoadedImage is not preloaded");
  support::check(loaded.spec->monitoring_embedded == config_.monitoring,
                 "Cpu: LoadedImage monitoring does not match the configuration");
  spec_ = loaded.spec;
  fused_ = loaded.fused;
  memory_.set_base(loaded.pages);
  if (config_.monitoring) {
    cic_.emplace(config_.cic);
    // Borrowed, not owned: the empty owner leaves the table's lifetime to
    // the LoadedImage, which outlives this Cpu.
    os_.emplace(config_.os, std::shared_ptr<const cfg::FullHashTable>(
                                std::shared_ptr<const void>(), &loaded.fht));
    special_[static_cast<std::size_t>(uop::SpecialReg::kRhash)] = cic_->rhash_init();
  }
}

void Cpu::save_snapshot(Snapshot* snapshot) const {
  support::check(snapshot != nullptr, "save_snapshot: null snapshot");
  support::check(!config_.recovery.enabled,
                 "snapshots do not support recovery mode (block checkpoints)");
  snapshot->instructions = result_.instructions;
  snapshot->bus_transfers = fetch_.bus_transfers();
  snapshot->gpr = gpr_;
  snapshot->special = special_;
  snapshot->result = result_;
  snapshot->pc_redirected = pc_redirected_;
  snapshot->pending_exc = pending_exc_;
  snapshot->hilo_ready_cycle = hilo_ready_cycle_;
  snapshot->prev_load_dst = prev_load_dst_;
  snapshot->checker.reset();
  if (cic_) snapshot->checker = cic_->save_state();
  snapshot->os_stats.reset();
  if (os_) snapshot->os_stats = os_->stats();
  snapshot->icache.reset();
  if (const mem::ICache* icache = fetch_.icache()) snapshot->icache = icache->save_state();
  snapshot->pending_stall_cycles = fetch_.pending_stall_cycles();
  snapshot->memory_delta = memory_.delta_pages();
}

void Cpu::restore_snapshot(const Snapshot& snapshot) {
  support::check(!config_.recovery.enabled,
                 "snapshots do not support recovery mode (block checkpoints)");
  support::check(snapshot.checker.has_value() == cic_.has_value() &&
                     snapshot.os_stats.has_value() == os_.has_value(),
                 "restore_snapshot: monitoring configuration mismatch");
  support::check(snapshot.icache.has_value() == (fetch_.icache() != nullptr),
                 "restore_snapshot: icache configuration mismatch");
  gpr_ = snapshot.gpr;
  special_ = snapshot.special;
  result_ = snapshot.result;
  running_ = true;
  pc_redirected_ = snapshot.pc_redirected;
  pending_exc_ = snapshot.pending_exc;
  hilo_ready_cycle_ = snapshot.hilo_ready_cycle;
  prev_load_dst_ = snapshot.prev_load_dst;
  if (cic_) cic_->restore_state(*snapshot.checker);
  if (os_) os_->restore_stats(*snapshot.os_stats);
  if (mem::ICache* icache = fetch_.icache()) icache->restore_state(*snapshot.icache);
  fetch_.set_pending_stall_cycles(snapshot.pending_stall_cycles);
  fetch_.set_bus_transfers(snapshot.bus_transfers);
  memory_.restore_pages(snapshot.memory_delta);
  // Predecode and translation caches are left as-is: both are tagged by the
  // fetched word, so stale entries miss and rebuild bit-identically.
}

}  // namespace cicmon::cpu
