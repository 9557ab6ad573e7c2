#include "uop/translate_cache.h"

#include "support/error.h"

namespace cicmon::uop {
namespace {

std::uint8_t resolve(GprSel sel, const isa::Instruction& instr) {
  switch (sel) {
    case GprSel::kRs: return instr.rs;
    case GprSel::kRt: return instr.rt;
    case GprSel::kRd: return instr.rd;
    case GprSel::kRa31: return 31;
  }
  return 0;
}

}  // namespace

TransEntry make_entry(std::uint32_t addr, std::uint32_t word, const IsaUopSpec& spec,
                      const FusedTable& fused) {
  TransEntry e;
  e.addr = addr;
  e.word = word;
  e.instr = isa::decode(word);
  e.program = &spec.program(e.instr.mnemonic);

  const FusedOp& op = fused[static_cast<std::size_t>(e.instr.mnemonic)];
  e.kind = op.kind;
  e.alu = op.alu;
  e.muldiv = op.muldiv;
  e.width = op.width;
  e.sign_extend = op.sign_extend;
  e.link = op.link;
  e.hilo = static_cast<std::uint8_t>(op.hilo);
  e.a = resolve(op.a_sel, e.instr);
  e.b = resolve(op.b_sel, e.instr);
  e.dst = resolve(op.dst_sel, e.instr);

  e.hazards = isa::hazards_of(e.instr);

  switch (op.kind) {
    case FusedKind::kAluRI:
      switch (op.imm_kind) {
        case ImmKind::kSignedImm: e.imm = static_cast<std::uint32_t>(e.instr.simm()); break;
        case ImmKind::kZeroImm: e.imm = e.instr.uimm(); break;
        case ImmKind::kShamt: e.imm = e.instr.shamt; break;
        default: break;  // classifier admits only the three kinds above
      }
      break;
    case FusedKind::kImmWrite:
      e.imm = e.instr.uimm() << 16;  // lui: the verified const-16 shift
      break;
    case FusedKind::kLoad:
    case FusedKind::kStore:
      e.imm = static_cast<std::uint32_t>(e.instr.simm());
      break;
    case FusedKind::kBranch2:
    case FusedKind::kBranch1:
      e.imm = e.instr.branch_target(addr);
      break;
    case FusedKind::kJump:
      e.imm = e.instr.jump_target(addr);
      break;
    default:
      break;
  }
  return e;
}

void resolve_edges(TranslatedBlock* block, std::uint32_t text_base, std::uint32_t text_end) {
  const auto in_text = [text_base, text_end](std::uint32_t t) {
    return t >= text_base && t < text_end && (t & 3U) == 0;
  };
  const TransEntry& last = block->entries.back();
  switch (last.kind) {
    case FusedKind::kBranch2:
    case FusedKind::kBranch1:
      // Direct conditional branch: both edges are static.
      block->has_taken = in_text(last.imm);
      block->taken_target = last.imm;
      block->has_fall = in_text(last.addr + 4);
      block->fall_target = last.addr + 4;
      break;
    case FusedKind::kJump:
      block->has_taken = in_text(last.imm);
      block->taken_target = last.imm;
      break;
    case FusedKind::kGeneric:
      // Force-split tails and unmatched shapes execute through the
      // interpreter; when they retire without redirecting the PC, the
      // successor is the next word. (A redirecting generic returns to the
      // dispatch loop instead — the engine reports kRestart, not kFall.)
      block->has_fall = in_text(last.addr + 4);
      block->fall_target = last.addr + 4;
      break;
    case FusedKind::kJumpReg:
    case FusedKind::kSyscall:
    case FusedKind::kIllegal:
    default:
      break;  // indirect or terminating: no static successor
  }
}

void BlockBase::link_blocks() {
  for (const std::unique_ptr<TranslatedBlock>& block : blocks_) {
    if (block->has_taken) block->taken = slots_[index(block->taken_target)];
    if (block->has_fall) block->fall = slots_[index(block->fall_target)];
  }
}

TranslationCache::TranslationCache(std::uint32_t text_base, std::uint32_t text_end,
                                   std::shared_ptr<const BlockBase> base)
    : text_base_(text_base),
      text_end_(text_end),
      base_(std::move(base)),
      owned_((text_end - text_base) / 4) {
  if (base_ != nullptr) {
    if (base_->text_base() != text_base || base_->text_end() != text_end) {
      throw support::CicError("TranslationCache: block base covers a different text range");
    }
    view_ = base_->slots_;
  } else {
    view_.resize(owned_.size());
  }
}

void TranslationCache::chain(TranslatedBlock* from, bool taken_edge, TranslatedBlock* to) {
  if (from->shared) return;
  TranslatedBlock*& link = taken_edge ? from->taken : from->fall;
  const bool has_edge = taken_edge ? from->has_taken : from->has_fall;
  const std::uint32_t target = taken_edge ? from->taken_target : from->fall_target;
  if (!has_edge || to->start != target) return;
  // A non-null link can only be stale when it points at a base block that
  // died in this view (owned targets sever eagerly); that link holds no
  // pred entry, so it is simply replaced.
  if (link != nullptr && live(link)) return;
  link = to;
  if (!to->shared) to->preds.emplace_back(from, taken_edge);
}

void TranslationCache::invalidate(std::uint32_t block_start) {
  ++stats_.invalidations;
  const std::size_t i = index(block_start);
  if (owned_[i] != nullptr) {
    sever_links(owned_[i].get());
    owned_[i].reset();
  }
  view_[i] = nullptr;
}

void TranslationCache::sever_links(TranslatedBlock* block) {
  // Outbound: the dying block must vanish from its successors' pred lists so
  // no successor ever holds a pointer to freed memory. (A self-loop shows up
  // in its own preds and is handled here, before the inbound walk.) A base
  // successor never recorded the link.
  const auto drop_outbound = [this, block](TranslatedBlock* succ, bool taken_edge) {
    if (succ == nullptr) return;
    if (!succ->shared) {
      std::erase(succ->preds, std::pair<TranslatedBlock*, bool>{block, taken_edge});
    }
    ++stats_.chain_severed;
  };
  drop_outbound(block->taken, true);
  drop_outbound(block->fall, false);
  block->taken = nullptr;
  block->fall = nullptr;
  // Inbound: every predecessor whose edge points here loses the link — the
  // next execution of that edge goes back through lookup/translate and
  // re-verifies before re-chaining. Predecessors are always owned blocks.
  for (const auto& [pred, taken_edge] : block->preds) {
    if (taken_edge) {
      if (pred->taken == block) pred->taken = nullptr;
    } else {
      if (pred->fall == block) pred->fall = nullptr;
    }
    ++stats_.chain_severed;
  }
  block->preds.clear();
}

}  // namespace cicmon::uop
