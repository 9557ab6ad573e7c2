// Pretty-printer producing the paper's microoperation notation (Figures 1,
// 3(b), 4). Used by the design-flow example and by the golden tests that pin
// the embedded monitoring sequences to the published figures.
#include <sstream>

#include "uop/monitor_pass.h"
#include "uop/uop.h"

namespace cicmon::uop {
namespace {

const char* special_name(SpecialReg r) {
  switch (r) {
    case SpecialReg::kCpc: return "CPC";
    case SpecialReg::kPpc: return "PPC";
    case SpecialReg::kIReg: return "IReg";
    case SpecialReg::kSta: return "STA";
    case SpecialReg::kRhash: return "RHASH";
    case SpecialReg::kHi: return "HI";
    case SpecialReg::kLo: return "LO";
  }
  return "?";
}

// Conventional names for the well-known temp slots, matching the paper's
// variable names; anonymous temps print as tN.
std::string temp_name(std::uint8_t t) {
  switch (t) {
    case 0: return "current_pc";
    case 1: return "instr";
    case MonitorTemps::kStartIf: return "start";
    case MonitorTemps::kOldHash: return "ohashv";
    case MonitorTemps::kNewHash: return "nhashv";
    case MonitorTemps::kStartId: return "start";
    case MonitorTemps::kEnd: return "end";
    case MonitorTemps::kHashV: return "hashv";
    case MonitorTemps::kFound: return "found";
    case MonitorTemps::kMatch: return "match";
    // append() rather than `"t" + ...`: GCC 12 reports a false -Wrestrict on
    // operator+(const char*, std::string&&).
    default: return std::string("t").append(std::to_string(t));
  }
}

const char* alu_name(AluOp op) {
  switch (op) {
    case AluOp::kAdd: return "add";
    case AluOp::kSub: return "sub";
    case AluOp::kAnd: return "and";
    case AluOp::kOr: return "or";
    case AluOp::kXor: return "xor";
    case AluOp::kNor: return "nor";
    case AluOp::kSll: return "sll";
    case AluOp::kSrl: return "srl";
    case AluOp::kSra: return "sra";
    case AluOp::kSltSigned: return "slt";
    case AluOp::kSltUnsigned: return "sltu";
    case AluOp::kCmpEq: return "eq";
    case AluOp::kCmpNe: return "ne";
    case AluOp::kCmpLeZ: return "lez";
    case AluOp::kCmpGtZ: return "gtz";
    case AluOp::kCmpLtZ: return "ltz";
    case AluOp::kCmpGeZ: return "gez";
  }
  return "?";
}

const char* sel_name(GprSel sel) {
  switch (sel) {
    case GprSel::kRs: return "rs";
    case GprSel::kRt: return "rt";
    case GprSel::kRd: return "rd";
    case GprSel::kRa31: return "r31";
  }
  return "?";
}

std::string guard_prefix(const Uop& op) {
  switch (op.guard) {
    case GuardKind::kAlways: return "";
    // append() for the same GCC 12 -Wrestrict false positive as temp_name.
    case GuardKind::kIfZero:
      return std::string("[").append(temp_name(op.guard_tmp)).append("==0]");
    case GuardKind::kIfNonZero:
      return std::string("[").append(temp_name(op.guard_tmp)).append("!=0]");
  }
  return "";
}

}  // namespace

std::string to_string(const Uop& op) {
  std::ostringstream out;
  const std::string guard = guard_prefix(op);
  switch (op.kind) {
    case UopKind::kReadSpecial:
      out << temp_name(op.dst) << " = " << special_name(op.special) << ".read();";
      break;
    case UopKind::kWriteSpecial:
      out << "null = " << guard << special_name(op.special) << ".write("
          << temp_name(op.src_a) << ");";
      break;
    case UopKind::kResetSpecial:
      out << "null = " << special_name(op.special) << ".reset();";
      break;
    case UopKind::kReadGpr:
      out << temp_name(op.dst) << " = GPR.read(" << sel_name(op.sel) << ");";
      break;
    case UopKind::kWriteGpr:
      out << "null = GPR.write(" << sel_name(op.sel) << ", " << temp_name(op.src_a) << ");";
      break;
    case UopKind::kImm:
      out << temp_name(op.dst) << " = ";
      switch (op.imm_kind) {
        case ImmKind::kSignedImm: out << "sext(imm);"; break;
        case ImmKind::kZeroImm: out << "zext(imm);"; break;
        case ImmKind::kShamt: out << "shamt;"; break;
        case ImmKind::kBranchTarget: out << "btarget(CPC, imm);"; break;
        case ImmKind::kJumpTarget: out << "jtarget(CPC, instr);"; break;
        case ImmKind::kLinkAddr: out << "link(CPC);"; break;
        case ImmKind::kConst: out << "'" << op.literal << "';"; break;
      }
      break;
    case UopKind::kAlu:
      out << temp_name(op.dst) << " = ALU." << alu_name(op.alu) << "("
          << temp_name(op.src_a);
      if (op.src_b != kNoTemp) out << ", " << temp_name(op.src_b);
      out << ");";
      break;
    case UopKind::kMulDiv:
      out << "<HI,LO> = MDU.ope(" << temp_name(op.src_a) << ", " << temp_name(op.src_b) << ");";
      break;
    case UopKind::kFetchInstr:
      out << temp_name(op.dst) << " = IMAU.read(" << temp_name(op.src_a) << ");";
      break;
    case UopKind::kLoad:
      out << temp_name(op.dst) << " = DMAU.read(" << temp_name(op.src_a) << ");";
      break;
    case UopKind::kStore:
      out << "null = DMAU.write(" << temp_name(op.src_a) << ", " << temp_name(op.src_b) << ");";
      break;
    case UopKind::kSetPc:
      out << "null = " << guard << "CPC.write(" << temp_name(op.src_a) << ");";
      break;
    case UopKind::kHashStep:
      out << temp_name(op.dst) << " = HASHFU.ope(" << temp_name(op.src_a) << ", "
          << temp_name(op.src_b) << ");";
      break;
    case UopKind::kIhtLookup:
      out << "<found,match> = IHTbb.lookup(<" << temp_name(op.src_a) << ","
          << temp_name(op.src_b) << "," << temp_name(op.src_c) << ">);";
      break;
    case UopKind::kRaiseExc:
      out << "exception" << unsigned{op.exc_code} << " = " << guard << "'1';";
      break;
    case UopKind::kSyscall:
      out << "null = OS.syscall();";
      break;
    case UopKind::kIllegal:
      out << "null = TRAP.illegal();";
      break;
  }
  return out.str();
}

std::string dump_stage(const std::vector<Uop>& ops, Stage stage) {
  std::ostringstream out;
  for (const Uop& op : ops) {
    if (op.stage != stage) continue;
    out << to_string(op) << '\n';
  }
  return out.str();
}

}  // namespace cicmon::uop
