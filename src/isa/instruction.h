// Instruction word decode/encode.
//
// `Instruction` is a decoded view of a 32-bit instruction word. Decoding never
// fails: words that match no catalogue row decode to Mnemonic::kInvalid, which
// the pipeline reports as an illegal-opcode trap — the paper notes (§6.3) that
// some bit flips are caught by the baseline microarchitecture this way, and we
// measure exactly that in the fault campaigns.
#pragma once

#include <cstdint>
#include <string>

#include "isa/opcodes.h"

namespace cicmon::isa {

struct Instruction {
  std::uint32_t raw = 0;
  Mnemonic mnemonic = Mnemonic::kInvalid;
  // Decoded fields (valid per format; unused fields are zero).
  std::uint8_t rs = 0;
  std::uint8_t rt = 0;
  std::uint8_t rd = 0;
  std::uint8_t shamt = 0;
  std::uint16_t imm = 0;        // raw 16-bit immediate
  std::uint32_t target = 0;     // raw 26-bit jump target field

  const OpcodeInfo& info() const { return isa::info(mnemonic); }
  bool valid() const { return mnemonic != Mnemonic::kInvalid; }
  bool flow_control() const { return valid() && is_flow_control(info().cls); }

  // Sign-extended immediate (for addi/slti/loads/stores/branch offsets).
  std::int32_t simm() const;
  // Zero-extended immediate (for andi/ori/xori).
  std::uint32_t uimm() const { return imm; }

  // Branch destination given the address of this (branch) instruction.
  // PISA-style: target = PC + 4 + (signed offset << 2).
  std::uint32_t branch_target(std::uint32_t pc) const;
  // Jump destination for j/jal given the address of this instruction.
  std::uint32_t jump_target(std::uint32_t pc) const;
};

// Decodes a raw instruction word. Total: every word decodes to something.
Instruction decode(std::uint32_t word);

// What the cycle model's hazard rule needs to know about one instruction,
// derived once per decoded word. The predecode cache and every translated
// entry cache it, so the retire path never re-inspects the instruction.
struct Hazards {
  // GPRs consumed in ID/EX (0 = none): the load-use comparison targets. A
  // just-loaded value is not yet available to them without a bubble; store
  // data (rt of sb/sh/sw) is consumed in MEM and forwards without stalling.
  std::uint8_t early_a = 0;
  std::uint8_t early_b = 0;
  std::uint8_t load_dst = 0;    // rt when this is a load, else 0
  std::uint8_t muldiv_lat = 0;  // 0 = not muldiv, 1 = mult latency, 2 = div latency
  bool is_mfhilo = false;       // mfhi/mflo: stalls until HI/LO is ready
};

Hazards hazards_of(const Instruction& instr);

// --- Encoding helpers (used by the assembler and the builder API) ---
std::uint32_t encode_r(Mnemonic m, unsigned rd, unsigned rs, unsigned rt, unsigned shamt = 0);
std::uint32_t encode_i(Mnemonic m, unsigned rt, unsigned rs, std::uint16_t imm);
std::uint32_t encode_j(Mnemonic m, std::uint32_t target_word_address);

// Canonical textual form, e.g. "addu $t0, $t1, $t2" or "bne $a0, $zero, -12".
std::string disassemble(const Instruction& instr);
inline std::string disassemble(std::uint32_t word) { return disassemble(decode(word)); }

}  // namespace cicmon::isa
