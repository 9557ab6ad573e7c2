// Block-level translation cache for the threaded execution engine.
//
// A translated block is a straight-line run of fused entries starting at a
// text address and ending at the first block terminator (flow control,
// syscall, illegal/unmatched program) or at the text end / length cap. Each
// entry is tagged with the word it was translated from — the same tamper-safe
// keying as the per-word predecode cache. Translation peeks words straight
// from memory (no bus, no I-cache, no RHASH update: translation must be free
// of architectural side effects); at execution time every dynamic instruction
// still goes through the real fetch path, and the engine compares the fetched
// (and possibly tampered) word against the entry tag. Any divergence — bus
// tamper, cache-resident flip, memory rewrite, post-ID latch fault — misses
// the tag, invalidates the block, executes that one instruction through the
// interpreter on the word the pipeline actually carries, and retranslates.
//
// Region-granular RHASH folding: each entry also carries `rhash`, the RHASH
// value right after its fetch when the check region opened at the block
// start — the monitored machine's HASHFU folded over the tags, at
// translation. When a block is entered at a region start, the engine's
// batched straight-line run fetches and tag-checks every word but defers the
// fold, then writes the last batched entry's `rhash` before the terminator
// runs. Because each batched word equalled its tag, that is exactly the
// per-fetch fold, for any hash kind; a word that missed its tag is folded
// for real. Blocks entered mid-region fold per fetch.
//
// Superblock chaining: a block whose terminator has statically known
// successors (direct branches: taken target and fall-through; jumps: target;
// generic straight-line tails: fall-through) records those edge addresses at
// translation time. Once both blocks exist in the cache, the engine links
// them (`chain`) and later executions flow straight from the terminator into
// the successor without a dispatch-loop round trip or a cache lookup.
//
// Shared base: a fault campaign translates its program once, from the frozen
// post-loader text, into an immutable BlockBase whose blocks come pre-chained
// to each other. Every trial's TranslationCache is an overlay on that base —
// copy-on-write applied to translation: lookups see the trial's own blocks
// first, then the base; a tag mismatch on a base block marks it dead in this
// view only and retranslates it into the overlay; nothing a cache does ever
// writes a base block (its links or its preds), so any number of trials on
// any number of threads read one base.
//
// The severing invariant that keeps chaining tamper-safe, per view: a link is
// followed only if its target is live in this cache's view. Links into the
// cache's own blocks are live by construction: `invalidate` (and any slot
// replacement) cuts every inbound and outbound link of the dying owned block
// first, since a pointer into freed memory would be a correctness bug, not a
// slow path. A base block dies in a view without being touched, so the links
// into it (from the base or from the overlay) stay in place and the engine
// checks `live` before following a link into a base block; `chain` replaces
// a dead overlay link when the retranslated successor appears. Indirect
// edges (jump-register, syscall, illegal) always return to the dispatch loop.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "hash/hash_unit.h"
#include "isa/instruction.h"
#include "uop/threaded.h"
#include "uop/uop.h"

namespace cicmon::uop {

// Translated blocks never exceed this many entries; a longer straight-line
// run is split (the forced last entry executes through the interpreter and
// the next block picks up at the following word).
inline constexpr std::size_t kMaxBlockEntries = 64;

// One translated instruction: the fused shape with operands resolved against
// the decoded word and immediates/targets precomputed against the address.
struct TransEntry {
  std::uint32_t addr = 0;
  std::uint32_t word = 0;  // tag: the word this entry was translated from
  FusedKind kind = FusedKind::kGeneric;
  AluOp alu = AluOp::kAdd;
  MulDivOp muldiv = MulDivOp::kMult;
  MemWidth width = MemWidth::kWord;
  bool sign_extend = false;
  bool link = false;
  std::uint8_t a = 0;     // resolved GPR indices
  std::uint8_t b = 0;
  std::uint8_t dst = 0;
  std::uint8_t hilo = 0;  // SpecialReg index for kHiLoRead / kHiLoWrite
  isa::Hazards hazards;  // the cycle model's view of the instruction
  std::uint32_t imm = 0;  // immediate / branch target / jump target / lui value
  // RHASH right after this entry's fetch when its check region opened at the
  // block start: the HASHFU's init() folded through every tag up to and
  // including this one (0 when the block was translated without a HASHFU,
  // i.e. unmonitored). The engine's batched straight-line runs write it
  // instead of stepping the HASHFU per fetch — valid only because each
  // batched fetch was checked equal to its tag.
  std::uint32_t rhash = 0;
  isa::Instruction instr;            // for the interpreter fallback
  const InstrUops* program = nullptr;  // interpreter program (kGeneric, tamper)
};
// The threaded engine walks entries in order: keep one within a cache line
// (the byte-wide fields are grouped so `rhash` fills padding; 56 bytes).
static_assert(sizeof(TransEntry) <= 64, "TransEntry outgrew a cache line");

struct TranslatedBlock {
  std::uint32_t start = 0;
  std::vector<TransEntry> entries;
  // Entries before the terminator (= entries.size() - 1): the straight-line
  // run whose per-instruction retire/cycle contribution is statically known,
  // the basis of the engine's per-block batched accounting.
  std::uint32_t straight_len = 0;
  // Lives in a BlockBase: read-only to every cache that sees it.
  bool shared = false;
  // Statically resolved successor edges of the terminator. `has_*` marks an
  // edge whose target is a valid text address; `*_target` is that address.
  // `taken`/`fall` are the chain links — null until `chain` verifies and
  // installs them (or, in a base, until the base links its own blocks), and
  // followed only while their target is live in the executing cache's view.
  bool has_taken = false;
  bool has_fall = false;
  std::uint32_t taken_target = 0;
  std::uint32_t fall_target = 0;
  TranslatedBlock* taken = nullptr;
  TranslatedBlock* fall = nullptr;
  // Inbound links from cache-owned blocks: every (pred, is-taken-edge) whose
  // `taken`/`fall` points here, so invalidation can sever them in O(inbound
  // degree). Always empty on a base block, which nothing may write.
  std::vector<std::pair<TranslatedBlock*, bool>> preds;
};

// Translates one word at `addr`: decode, fused-table lookup, operand
// resolution, immediate precomputation.
TransEntry make_entry(std::uint32_t addr, std::uint32_t word, const IsaUopSpec& spec,
                      const FusedTable& fused);

// Computes the terminator's static successor edges (translate-time): only
// targets inside [text_base, text_end) count as edges.
void resolve_edges(TranslatedBlock* block, std::uint32_t text_base, std::uint32_t text_end);

// Translates the block starting at the text address `addr`, reading words
// through `peek` (which must be free of architectural side effects). With a
// HASHFU (`hashfu`, the monitored machine's unit; null when unmonitored),
// each entry's `rhash` is the unit's region fold through its tag.
template <typename PeekFn>
TranslatedBlock translate_block(std::uint32_t addr, std::uint32_t text_base,
                                std::uint32_t text_end, const IsaUopSpec& spec,
                                const FusedTable& fused,
                                const hash::HashFunctionUnit* hashfu, PeekFn&& peek) {
  TranslatedBlock block;
  block.start = addr;
  std::uint32_t rhash = hashfu != nullptr ? hashfu->init() : 0;
  for (std::uint32_t a = addr;; a += 4) {
    block.entries.push_back(make_entry(a, peek(a), spec, fused));
    if (hashfu != nullptr) {
      rhash = hashfu->step(rhash, block.entries.back().word);
      block.entries.back().rhash = rhash;
    }
    if (is_block_terminator(block.entries.back().kind)) break;
    if (a + 4 >= text_end || block.entries.size() >= kMaxBlockEntries) {
      // Force-terminate: the final entry runs through the interpreter,
      // which retires it and hands control back to the block loop.
      block.entries.back().kind = FusedKind::kGeneric;
      break;
    }
  }
  block.straight_len = static_cast<std::uint32_t>(block.entries.size() - 1);
  resolve_edges(&block, text_base, text_end);
  return block;
}

// The campaign-wide translated-block base: every block reachable from the
// seeds, translated once from the frozen text (with the campaign machine's
// HASHFU, like any cache of that machine) and chained to each other, then
// immutable. Reachable means closed over the static successor edges
// plus the resume site after every linking jump (where its callee returns)
// and every syscall (where the program continues).
class BlockBase {
 public:
  template <typename PeekFn>
  BlockBase(std::uint32_t text_base, std::uint32_t text_end,
            std::span<const std::uint32_t> seeds, const IsaUopSpec& spec,
            const FusedTable& fused, const hash::HashFunctionUnit* hashfu, PeekFn&& peek)
      : text_base_(text_base), text_end_(text_end), slots_((text_end - text_base) / 4) {
    std::vector<std::uint32_t> work(seeds.begin(), seeds.end());
    while (!work.empty()) {
      const std::uint32_t addr = work.back();
      work.pop_back();
      if (addr < text_base_ || addr >= text_end_ || (addr & 3U) != 0 ||
          slots_[index(addr)] != nullptr) {
        continue;
      }
      auto block = std::make_unique<TranslatedBlock>(
          translate_block(addr, text_base_, text_end_, spec, fused, hashfu, peek));
      block->shared = true;
      if (block->has_taken) work.push_back(block->taken_target);
      if (block->has_fall) work.push_back(block->fall_target);
      const TransEntry& last = block->entries.back();
      if (last.link || last.kind == FusedKind::kSyscall) work.push_back(last.addr + 4);
      slots_[index(addr)] = block.get();
      blocks_.push_back(std::move(block));
    }
    link_blocks();
  }

  BlockBase(const BlockBase&) = delete;
  BlockBase& operator=(const BlockBase&) = delete;

  std::uint32_t text_base() const { return text_base_; }
  std::uint32_t text_end() const { return text_end_; }
  std::size_t size() const { return blocks_.size(); }
  // The base block starting at `addr`, or nullptr.
  const TranslatedBlock* block(std::uint32_t addr) const { return slots_[index(addr)]; }

 private:
  friend class TranslationCache;

  std::size_t index(std::uint32_t addr) const { return (addr - text_base_) / 4; }
  // Installs every static edge whose target is itself a base block.
  void link_blocks();

  std::uint32_t text_base_;
  std::uint32_t text_end_;
  std::vector<TranslatedBlock*> slots_;  // one per text word; null = not in base
  std::vector<std::unique_ptr<TranslatedBlock>> blocks_;
};

class TranslationCache {
 public:
  struct Stats {
    std::uint64_t translations = 0;   // blocks translated by this cache
    std::uint64_t hits = 0;           // block lookups served (own or base)
    std::uint64_t invalidations = 0;  // blocks dropped on a tag mismatch
    std::uint64_t chain_severed = 0;  // chain links cut by invalidations
  };

  // An empty cache over [text_base, text_end), optionally an overlay on a
  // shared base built for the same text range.
  TranslationCache(std::uint32_t text_base, std::uint32_t text_end,
                   std::shared_ptr<const BlockBase> base = nullptr);

  // Returns the block this cache serves at `addr` — its own, else the
  // base's unless dead in this view — or nullptr.
  TranslatedBlock* lookup(std::uint32_t addr) {
    TranslatedBlock* block = view_[index(addr)];
    if (block != nullptr) ++stats_.hits;
    return block;
  }

  // True while `block` is the block this cache serves at its start address:
  // the precondition for following a chain link into it.
  bool live(const TranslatedBlock* block) const { return view_[index(block->start)] == block; }

  // Translates the block starting at `addr` (translate_block), caches it in
  // this overlay and returns it. `addr` must be a valid text address.
  template <typename PeekFn>
  TranslatedBlock* translate(std::uint32_t addr, const IsaUopSpec& spec,
                             const FusedTable& fused, const hash::HashFunctionUnit* hashfu,
                             PeekFn&& peek) {
    auto block = std::make_unique<TranslatedBlock>(
        translate_block(addr, text_base_, text_end_, spec, fused, hashfu, peek));
    ++stats_.translations;
    const std::size_t i = index(addr);
    // An owned block in this slot (it should have been invalidated first, but
    // never trust that) must drop out of the chain before it is freed; a
    // base block in it simply leaves this view.
    if (owned_[i] != nullptr) sever_links(owned_[i].get());
    owned_[i] = std::move(block);
    view_[i] = owned_[i].get();
    return view_[i];
  }

  // Links `from`'s taken or fall-through edge to `to`, after verifying that
  // `from` is this cache's own block, that the edge exists and is not already
  // linked to a live block, and that `to` really is the block at the
  // precomputed target address. Base blocks are never written.
  void chain(TranslatedBlock* from, bool taken_edge, TranslatedBlock* to);

  // Drops the block starting at `block_start` (a tag mismatched during its
  // execution) from this view. An owned block is freed after every chain
  // link into and out of it is severed; a base block is only marked dead
  // here. Other blocks overlapping the rewritten word are caught by their
  // own entry tags when they next execute.
  void invalidate(std::uint32_t block_start);

  const Stats& stats() const { return stats_; }

 private:
  std::size_t index(std::uint32_t addr) const { return (addr - text_base_) / 4; }

  // Cuts every inbound and outbound chain link of the owned `block`.
  void sever_links(TranslatedBlock* block);

  std::uint32_t text_base_;
  std::uint32_t text_end_;
  std::shared_ptr<const BlockBase> base_;  // null: every block is translated here
  // The block served per text word: an owned block, a base block, or null
  // (never translated here, or a base block dead in this view).
  std::vector<TranslatedBlock*> view_;
  std::vector<std::unique_ptr<TranslatedBlock>> owned_;  // this overlay's blocks
  Stats stats_;
};

}  // namespace cicmon::uop
