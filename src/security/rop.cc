#include "src/security/rop.h"

#include <algorithm>

#include "src/base/log.h"

namespace kite {

const char* InsnClassName(InsnClass c) {
  switch (c) {
    case InsnClass::kDataMove:
      return "DataMove";
    case InsnClass::kArithmetic:
      return "Arithmetic";
    case InsnClass::kLogic:
      return "Logic";
    case InsnClass::kControlFlow:
      return "ControlFlow";
    case InsnClass::kShiftRotate:
      return "ShiftAndRotate";
    case InsnClass::kSettingFlags:
      return "SettingFlags";
    case InsnClass::kString:
      return "String";
    case InsnClass::kFloating:
      return "Floating";
    case InsnClass::kMisc:
      return "Misc";
    case InsnClass::kMmx:
      return "MMX";
    case InsnClass::kNop:
      return "Nop";
    case InsnClass::kRet:
      return "Ret";
    case InsnClass::kCount:
      break;
  }
  return "?";
}

namespace {

// Whether a ModRM byte is acceptable in our subset and how many extra bytes
// it implies (0 for register-direct or simple [reg] memory forms).
bool ModrmOk(uint8_t modrm) {
  const uint8_t mod = modrm >> 6;
  const uint8_t rm = modrm & 7;
  if (mod == 3) {
    return true;  // Register direct.
  }
  if (mod == 0 && rm != 4 && rm != 5) {
    return true;  // [reg], no SIB/disp.
  }
  return false;
}

}  // namespace

DecodedInsn DecodeInsn(std::span<const uint8_t> code) {
  if (code.empty()) {
    return {};
  }
  size_t pos = 0;
  bool prefix_66 = false;
  bool prefix_f3 = false;
  bool prefix_f2 = false;
  // Legacy + REX prefixes (at most a few).
  for (int i = 0; i < 3 && pos < code.size(); ++i) {
    const uint8_t b = code[pos];
    if (b == 0x66) {
      prefix_66 = true;
      ++pos;
    } else if (b == 0xf3) {
      prefix_f3 = true;
      ++pos;
    } else if (b == 0xf2) {
      prefix_f2 = true;
      ++pos;
    } else if ((b & 0xf0) == 0x40) {  // REX.
      ++pos;
    } else {
      break;
    }
  }
  if (pos >= code.size()) {
    return {};
  }
  const uint8_t op = code[pos];
  auto need = [&](size_t extra) { return pos + extra < code.size() + 1; };
  auto mk = [&](size_t len_after_op, InsnClass klass) -> DecodedInsn {
    const size_t total = pos + 1 + len_after_op;
    if (total > code.size()) {
      return {};
    }
    return {total, klass};
  };
  auto modrm_insn = [&](InsnClass klass, size_t imm = 0) -> DecodedInsn {
    if (pos + 1 >= code.size() || !ModrmOk(code[pos + 1])) {
      return {};
    }
    return mk(1 + imm, klass);
  };

  switch (op) {
    case 0x90:
      return mk(0, prefix_f3 ? InsnClass::kNop : InsnClass::kNop);  // nop / pause.
    case 0xc3:
      return mk(0, InsnClass::kRet);
    case 0xc2:
      return mk(2, InsnClass::kRet);
    case 0xc9:  // leave
    case 0xf4:  // hlt
    case 0xcc:  // int3
      return mk(0, InsnClass::kMisc);
    case 0xf8:  // clc
    case 0xf9:  // stc
    case 0xf5:  // cmc
      return mk(0, InsnClass::kSettingFlags);
    case 0xa4:  // movsb
    case 0xa5:  // movs
    case 0xaa:  // stosb
    case 0xab:  // stos
    case 0xac:  // lodsb
    case 0xad:  // lods
    case 0xae:  // scasb
    case 0xaf:  // scas
      return mk(0, InsnClass::kString);
    case 0x89:  // mov r/m, r
    case 0x8b:  // mov r, r/m
      return modrm_insn(InsnClass::kDataMove);
    case 0x8d:  // lea
      return modrm_insn(InsnClass::kDataMove);
    case 0x01:  // add
    case 0x29:  // sub
      return modrm_insn(InsnClass::kArithmetic);
    case 0x21:  // and
    case 0x09:  // or
    case 0x31:  // xor
      return modrm_insn(InsnClass::kLogic);
    case 0x39:  // cmp
    case 0x85:  // test
      return modrm_insn(InsnClass::kSettingFlags);
    case 0xc1:  // shift group, imm8
      return modrm_insn(InsnClass::kShiftRotate, 1);
    case 0xd3:  // shift group by cl
      return modrm_insn(InsnClass::kShiftRotate);
    case 0xf7: {  // group 3: not/neg/mul/div by reg field.
      if (pos + 1 >= code.size() || !ModrmOk(code[pos + 1])) {
        return {};
      }
      const uint8_t reg = (code[pos + 1] >> 3) & 7;
      if (reg == 2 || reg == 3) {
        return mk(1, reg == 2 ? InsnClass::kLogic : InsnClass::kArithmetic);
      }
      if (reg >= 4) {  // mul/imul/div/idiv.
        return mk(1, InsnClass::kArithmetic);
      }
      return {};
    }
    case 0xff: {  // group 5.
      if (pos + 1 >= code.size() || !ModrmOk(code[pos + 1])) {
        return {};
      }
      const uint8_t reg = (code[pos + 1] >> 3) & 7;
      if (reg == 0 || reg == 1) {
        return mk(1, InsnClass::kArithmetic);  // inc/dec.
      }
      if (reg == 2 || reg == 4) {
        return mk(1, InsnClass::kControlFlow);  // call/jmp indirect.
      }
      if (reg == 6) {
        return mk(1, InsnClass::kDataMove);  // push r/m.
      }
      return {};
    }
    case 0xeb:  // jmp rel8
      return mk(1, InsnClass::kControlFlow);
    case 0xe9:  // jmp rel32
    case 0xe8:  // call rel32
      return mk(4, InsnClass::kControlFlow);
    case 0x0f: {
      if (pos + 1 >= code.size()) {
        return {};
      }
      const uint8_t op2 = code[pos + 1];
      ++pos;  // Account for the second opcode byte via mk()'s pos+1.
      if (op2 >= 0x80 && op2 <= 0x8f) {
        return mk(4, InsnClass::kControlFlow);  // jcc rel32.
      }
      switch (op2) {
        case 0xaf:  // imul r, r/m
          return modrm_insn(InsnClass::kArithmetic);
        case 0xa2:  // cpuid
          return mk(0, InsnClass::kMisc);
        case 0x31:  // rdtsc
          return mk(0, InsnClass::kMisc);
        case 0x05:  // syscall
          return mk(0, InsnClass::kMisc);
        case 0x1f:  // multi-byte nop
          return modrm_insn(InsnClass::kNop);
        case 0x58:  // addps/addsd...
        case 0x59:  // mulps
        case 0x5c:  // subps
        case 0x2e:  // ucomiss
          return modrm_insn(InsnClass::kFloating);
        case 0x6f:  // movq/movdqa
        case 0x7f:
        case 0xef:  // pxor
        case 0xfe:  // paddd
          return modrm_insn(prefix_66 || prefix_f2 || prefix_f3 ? InsnClass::kMmx
                                                                : InsnClass::kMmx);
        default:
          return {};
      }
    }
    default:
      break;
  }
  if (op >= 0x50 && op <= 0x5f) {  // push/pop r.
    return mk(0, InsnClass::kDataMove);
  }
  if (op >= 0xb8 && op <= 0xbf) {  // mov r, imm32.
    return mk(4, InsnClass::kDataMove);
  }
  if (op >= 0x70 && op <= 0x7f) {  // jcc rel8.
    return mk(1, InsnClass::kControlFlow);
  }
  if (op >= 0xd8 && op <= 0xdf) {  // x87 escape.
    return modrm_insn(InsnClass::kFloating);
  }
  (void)need;
  (void)prefix_f2;
  return {};
}

namespace {

// Emits one random instruction of the given class using real encodings.
void EmitInsn(InsnClass klass, Rng* rng, Buffer* out) {
  auto modrm_reg_direct = [&]() -> uint8_t {
    return static_cast<uint8_t>(0xc0 | rng->NextBelow(64));
  };
  auto maybe_rex = [&] {
    if (rng->NextBool(0.55)) {
      out->push_back(0x48);
    }
  };
  switch (klass) {
    case InsnClass::kDataMove: {
      switch (rng->NextBelow(4)) {
        case 0:
          maybe_rex();
          out->push_back(rng->NextBool(0.5) ? 0x89 : 0x8b);
          out->push_back(modrm_reg_direct());
          break;
        case 1:
          out->push_back(static_cast<uint8_t>(0x50 + rng->NextBelow(16)));  // push/pop.
          break;
        case 2: {
          out->push_back(static_cast<uint8_t>(0xb8 + rng->NextBelow(8)));
          for (int i = 0; i < 4; ++i) {
            out->push_back(static_cast<uint8_t>(rng->NextU64()));
          }
          break;
        }
        default:
          maybe_rex();
          out->push_back(0x8d);  // lea.
          out->push_back(modrm_reg_direct());
          break;
      }
      break;
    }
    case InsnClass::kArithmetic: {
      maybe_rex();
      switch (rng->NextBelow(3)) {
        case 0:
          out->push_back(rng->NextBool(0.5) ? 0x01 : 0x29);
          out->push_back(modrm_reg_direct());
          break;
        case 1:
          out->push_back(0x0f);
          out->push_back(0xaf);  // imul.
          out->push_back(modrm_reg_direct());
          break;
        default:
          out->push_back(0xff);  // inc/dec.
          out->push_back(static_cast<uint8_t>(0xc0 | (rng->NextBelow(2) << 3) |
                                              rng->NextBelow(8)));
          break;
      }
      break;
    }
    case InsnClass::kLogic: {
      maybe_rex();
      const uint8_t ops[] = {0x21, 0x09, 0x31};
      out->push_back(ops[rng->NextBelow(3)]);
      out->push_back(modrm_reg_direct());
      break;
    }
    case InsnClass::kControlFlow: {
      switch (rng->NextBelow(4)) {
        case 0:
          out->push_back(0xeb);
          out->push_back(static_cast<uint8_t>(rng->NextU64()));
          break;
        case 1:
          out->push_back(rng->NextBool(0.5) ? 0xe8 : 0xe9);
          for (int i = 0; i < 4; ++i) {
            out->push_back(static_cast<uint8_t>(rng->NextU64()));
          }
          break;
        case 2:
          out->push_back(static_cast<uint8_t>(0x70 + rng->NextBelow(16)));
          out->push_back(static_cast<uint8_t>(rng->NextU64()));
          break;
        default:
          out->push_back(0xff);  // call/jmp indirect.
          out->push_back(static_cast<uint8_t>(0xc0 | ((rng->NextBool(0.5) ? 2 : 4) << 3) |
                                              rng->NextBelow(8)));
          break;
      }
      break;
    }
    case InsnClass::kShiftRotate: {
      maybe_rex();
      if (rng->NextBool(0.7)) {
        out->push_back(0xc1);
        const uint8_t regs[] = {0, 1, 4, 5, 7};  // rol/ror/shl/shr/sar.
        out->push_back(static_cast<uint8_t>(0xc0 | (regs[rng->NextBelow(5)] << 3) |
                                            rng->NextBelow(8)));
        out->push_back(static_cast<uint8_t>(rng->NextBelow(64)));
      } else {
        out->push_back(0xd3);
        out->push_back(static_cast<uint8_t>(0xc0 | (4 << 3) | rng->NextBelow(8)));
      }
      break;
    }
    case InsnClass::kSettingFlags: {
      if (rng->NextBool(0.8)) {
        maybe_rex();
        out->push_back(rng->NextBool(0.5) ? 0x39 : 0x85);
        out->push_back(modrm_reg_direct());
      } else {
        const uint8_t ops[] = {0xf8, 0xf9, 0xf5};
        out->push_back(ops[rng->NextBelow(3)]);
      }
      break;
    }
    case InsnClass::kString: {
      if (rng->NextBool(0.4)) {
        out->push_back(0xf3);  // rep.
      }
      const uint8_t ops[] = {0xa4, 0xa5, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf};
      out->push_back(ops[rng->NextBelow(8)]);
      break;
    }
    case InsnClass::kFloating: {
      if (rng->NextBool(0.5)) {
        out->push_back(static_cast<uint8_t>(0xd8 + rng->NextBelow(8)));  // x87.
        out->push_back(modrm_reg_direct());
      } else {
        out->push_back(0x0f);
        const uint8_t ops[] = {0x58, 0x59, 0x5c, 0x2e};
        out->push_back(ops[rng->NextBelow(4)]);
        out->push_back(modrm_reg_direct());
      }
      break;
    }
    case InsnClass::kMisc: {
      const uint8_t singles[] = {0xc9, 0xf4, 0xcc};
      if (rng->NextBool(0.5)) {
        out->push_back(singles[rng->NextBelow(3)]);
      } else {
        out->push_back(0x0f);
        const uint8_t ops[] = {0xa2, 0x31, 0x05};
        out->push_back(ops[rng->NextBelow(3)]);
      }
      break;
    }
    case InsnClass::kMmx: {
      if (rng->NextBool(0.4)) {
        out->push_back(0x66);
      }
      out->push_back(0x0f);
      const uint8_t ops[] = {0x6f, 0x7f, 0xef, 0xfe};
      out->push_back(ops[rng->NextBelow(4)]);
      out->push_back(static_cast<uint8_t>(0xc0 | rng->NextBelow(64)));
      break;
    }
    case InsnClass::kNop: {
      if (rng->NextBool(0.7)) {
        out->push_back(0x90);
      } else {
        out->push_back(0x0f);
        out->push_back(0x1f);
        out->push_back(static_cast<uint8_t>(0xc0 | rng->NextBelow(8)));
      }
      break;
    }
    case InsnClass::kRet: {
      if (rng->NextBool(0.9)) {
        out->push_back(0xc3);
      } else {
        out->push_back(0xc2);
        out->push_back(static_cast<uint8_t>(rng->NextBelow(64) * 8));
        out->push_back(0x00);
      }
      break;
    }
    case InsnClass::kCount:
      break;
  }
}

// Gadget window scanned back from each ret.
constexpr size_t kMaxGadgetBytes = 24;
constexpr int kMaxGadgetInsns = 5;

}  // namespace

Buffer GenerateCodeImage(const CodeProfile& code, Rng* rng, double scale) {
  const size_t target = static_cast<size_t>(static_cast<double>(code.code_bytes) * scale);
  Buffer out;
  out.reserve(target + 16);

  const double weights[] = {
      code.data_move, code.arithmetic, code.logic,    code.control_flow,
      code.shift_rotate, code.setting_flags, code.string_ops, code.floating,
      code.misc,      code.mmx_sse,  code.nop,
  };
  double total_weight = 0;
  for (double w : weights) {
    total_weight += w;
  }
  KITE_CHECK(total_weight > 0);
  // Function density: one ret per ~(100 / ret_density) instructions.
  const double ret_probability = code.ret_density / 100.0;

  while (out.size() < target) {
    if (rng->NextBool(ret_probability)) {
      EmitInsn(InsnClass::kRet, rng, &out);
      continue;
    }
    double pick = rng->NextDouble() * total_weight;
    int klass = 0;
    for (; klass < 10; ++klass) {
      if (pick < weights[klass]) {
        break;
      }
      pick -= weights[klass];
    }
    EmitInsn(static_cast<InsnClass>(klass), rng, &out);
  }
  return out;
}

GadgetCounts ScanGadgets(std::span<const uint8_t> code) {
  GadgetCounts counts;
  for (size_t ret_pos = 0; ret_pos < code.size(); ++ret_pos) {
    const uint8_t b = code[ret_pos];
    if (b != 0xc3 && !(b == 0xc2 && ret_pos + 2 < code.size())) {
      continue;
    }
    const size_t window = std::min(kMaxGadgetBytes, ret_pos);
    for (size_t back = 1; back <= window; ++back) {
      const size_t start = ret_pos - back;
      // Linear decode from start; must land exactly on the ret.
      size_t pos = start;
      int insns = 0;
      InsnClass first = InsnClass::kMisc;
      bool ok = true;
      while (pos < ret_pos) {
        DecodedInsn insn = DecodeInsn(code.subspan(pos, ret_pos - pos));
        if (!insn.valid() || insn.klass == InsnClass::kRet) {
          ok = false;
          break;
        }
        if (insns == 0) {
          first = insn.klass;
        }
        pos += insn.length;
        if (++insns > kMaxGadgetInsns) {
          ok = false;
          break;
        }
      }
      if (ok && pos == ret_pos && insns >= 1) {
        ++counts.by_class[static_cast<int>(first)];
        ++counts.total;
      }
    }
    // The bare ret itself is a gadget.
    ++counts.by_class[static_cast<int>(InsnClass::kRet)];
    ++counts.total;
  }
  return counts;
}

GadgetCounts AnalyzeProfile(const OsProfile& profile, double scale, uint64_t seed) {
  Rng rng(seed ^ static_cast<uint64_t>(profile.kind));
  Buffer image = GenerateCodeImage(profile.code, &rng, scale);
  GadgetCounts counts = ScanGadgets(image);
  // Scale counts back to the full image size.
  const double factor = 1.0 / scale;
  GadgetCounts scaled;
  for (int i = 0; i < kInsnClassCount; ++i) {
    scaled.by_class[i] = static_cast<uint64_t>(counts.by_class[i] * factor);
    scaled.total += scaled.by_class[i];
  }
  return scaled;
}

}  // namespace kite
