#include "isa/instruction.h"

#include <sstream>

#include "isa/registers.h"
#include "support/bitops.h"
#include "support/error.h"

namespace cicmon::isa {

using support::bits;
using support::sign_extend;

std::int32_t Instruction::simm() const { return sign_extend(imm, 16); }

std::uint32_t Instruction::branch_target(std::uint32_t pc) const {
  return pc + 4 + (static_cast<std::uint32_t>(simm()) << 2);
}

std::uint32_t Instruction::jump_target(std::uint32_t pc) const {
  // Classic MIPS region jump: top 4 bits of PC+4 concatenated with target<<2.
  return ((pc + 4) & 0xF000'0000U) | (target << 2);
}

Instruction decode(std::uint32_t word) {
  Instruction out;
  out.raw = word;
  out.rs = static_cast<std::uint8_t>(bits(word, 21, 5));
  out.rt = static_cast<std::uint8_t>(bits(word, 16, 5));
  out.rd = static_cast<std::uint8_t>(bits(word, 11, 5));
  out.shamt = static_cast<std::uint8_t>(bits(word, 6, 5));
  out.imm = static_cast<std::uint16_t>(bits(word, 0, 16));
  out.target = bits(word, 0, 26);

  const std::uint8_t opcode = static_cast<std::uint8_t>(bits(word, 26, 6));
  const std::uint8_t funct = static_cast<std::uint8_t>(bits(word, 0, 6));

  out.mnemonic = Mnemonic::kInvalid;
  for (const OpcodeInfo& row : opcode_table()) {
    if (row.mnemonic == Mnemonic::kInvalid || row.opcode != opcode) continue;
    if (opcode == 0x00) {
      if (row.funct == funct) { out.mnemonic = row.mnemonic; break; }
    } else if (opcode == 0x01) {
      // REGIMM: the rt field selects bltz/bgez.
      if (row.funct == out.rt) { out.mnemonic = row.mnemonic; break; }
    } else {
      out.mnemonic = row.mnemonic;
      break;
    }
  }
  return out;
}

namespace {

// True if `instr` consumes GPR `reg` in its ID or EX stage.
bool consumes_early(const Instruction& instr, unsigned reg) {
  if (reg == 0 || !instr.valid()) return false;
  switch (instr.info().operands) {
    case OperandPattern::kRdRsRt:
    case OperandPattern::kRsRt:
    case OperandPattern::kRsRtLabel:
      return instr.rs == reg || instr.rt == reg;
    case OperandPattern::kRdRtShamt:
      return instr.rt == reg;
    case OperandPattern::kRdRtRs:
      return instr.rt == reg || instr.rs == reg;
    case OperandPattern::kRs:
    case OperandPattern::kRdRs:
    case OperandPattern::kRtRsImm:
    case OperandPattern::kRsLabel:
      return instr.rs == reg;
    case OperandPattern::kRtOffBase:
      return instr.rs == reg;  // address base; stored rt forwards at MEM
    case OperandPattern::kRd:
    case OperandPattern::kRtImm:
    case OperandPattern::kLabel:
    case OperandPattern::kNone:
      return false;
  }
  return false;
}

}  // namespace

Hazards hazards_of(const Instruction& instr) {
  // consumes_early only ever matches rs or rt, so probing those two covers
  // every operand pattern; register 0 can never be a true dependency, so 0
  // doubles as "none".
  Hazards h;
  if (!instr.valid()) return h;
  h.early_a = consumes_early(instr, instr.rs) ? instr.rs : 0;
  h.early_b = consumes_early(instr, instr.rt) ? instr.rt : 0;
  const InstrClass cls = instr.info().cls;
  if (cls == InstrClass::kLoad) h.load_dst = instr.rt;
  if (cls == InstrClass::kMulDiv) {
    const bool is_div = instr.mnemonic == Mnemonic::kDiv || instr.mnemonic == Mnemonic::kDivu;
    h.muldiv_lat = is_div ? 2 : 1;
  }
  h.is_mfhilo = instr.mnemonic == Mnemonic::kMfhi || instr.mnemonic == Mnemonic::kMflo;
  return h;
}

namespace {

std::uint32_t pack(std::uint8_t opcode, unsigned rs, unsigned rt, unsigned rd,
                   unsigned shamt, std::uint8_t funct) {
  return (static_cast<std::uint32_t>(opcode) << 26) | (rs << 21) | (rt << 16) |
         (rd << 11) | (shamt << 6) | funct;
}

void check_reg(unsigned r) { support::check(r < kNumGpr, "register index out of range"); }

}  // namespace

std::uint32_t encode_r(Mnemonic m, unsigned rd, unsigned rs, unsigned rt, unsigned shamt) {
  const OpcodeInfo& row = info(m);
  support::check(row.format == Format::kR, "encode_r: not an R-type mnemonic");
  check_reg(rd); check_reg(rs); check_reg(rt);
  support::check(shamt < 32, "shift amount out of range");
  return pack(row.opcode, rs, rt, rd, shamt, row.funct);
}

std::uint32_t encode_i(Mnemonic m, unsigned rt, unsigned rs, std::uint16_t imm) {
  const OpcodeInfo& row = info(m);
  support::check(row.format == Format::kI, "encode_i: not an I-type mnemonic");
  check_reg(rt); check_reg(rs);
  if (row.opcode == 0x01) {
    // REGIMM encodes the branch kind in the rt field.
    return pack(row.opcode, rs, row.funct, 0, 0, 0) | imm;
  }
  return (static_cast<std::uint32_t>(row.opcode) << 26) | (rs << 21) | (rt << 16) | imm;
}

std::uint32_t encode_j(Mnemonic m, std::uint32_t target_word_address) {
  const OpcodeInfo& row = info(m);
  support::check(row.format == Format::kJ, "encode_j: not a J-type mnemonic");
  support::check(target_word_address < (1U << 26), "jump target out of 26-bit range");
  return (static_cast<std::uint32_t>(row.opcode) << 26) | target_word_address;
}

std::string disassemble(const Instruction& in) {
  if (!in.valid()) return "<invalid>";
  if (in.raw == 0) return "nop";  // sll $zero,$zero,0 is the canonical NOP
  const OpcodeInfo& row = in.info();
  std::ostringstream out;
  out << row.name << ' ';
  switch (row.operands) {
    case OperandPattern::kRdRsRt:
      out << reg_name(in.rd) << ", " << reg_name(in.rs) << ", " << reg_name(in.rt);
      break;
    case OperandPattern::kRdRtShamt:
      out << reg_name(in.rd) << ", " << reg_name(in.rt) << ", " << unsigned{in.shamt};
      break;
    case OperandPattern::kRdRtRs:
      out << reg_name(in.rd) << ", " << reg_name(in.rt) << ", " << reg_name(in.rs);
      break;
    case OperandPattern::kRs:
      out << reg_name(in.rs);
      break;
    case OperandPattern::kRdRs:
      out << reg_name(in.rd) << ", " << reg_name(in.rs);
      break;
    case OperandPattern::kRd:
      out << reg_name(in.rd);
      break;
    case OperandPattern::kRsRt:
      out << reg_name(in.rs) << ", " << reg_name(in.rt);
      break;
    case OperandPattern::kRtRsImm:
      out << reg_name(in.rt) << ", " << reg_name(in.rs) << ", " << in.simm();
      break;
    case OperandPattern::kRsRtLabel:
      out << reg_name(in.rs) << ", " << reg_name(in.rt) << ", " << (in.simm() << 2);
      break;
    case OperandPattern::kRsLabel:
      out << reg_name(in.rs) << ", " << (in.simm() << 2);
      break;
    case OperandPattern::kRtImm:
      out << reg_name(in.rt) << ", " << in.uimm();
      break;
    case OperandPattern::kRtOffBase:
      out << reg_name(in.rt) << ", " << in.simm() << '(' << reg_name(in.rs) << ')';
      break;
    case OperandPattern::kLabel:
      out << "0x" << std::hex << (in.target << 2);
      break;
    case OperandPattern::kNone: {
      std::string text = out.str();
      if (!text.empty() && text.back() == ' ') text.pop_back();
      return text;
    }
  }
  return out.str();
}

}  // namespace cicmon::isa
