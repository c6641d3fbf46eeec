// ROP gadget analysis (paper §5.1.2, Figs 1b and 5).
//
// Methodology follows Follner et al. [36]: gadgets are instruction sequences
// ending in RET, categorized by operation class. Since the real kernel
// binaries are unavailable here, we (a) generate synthetic executable images
// from each OS profile's code size and instruction mix using *real x86-64
// encodings*, and (b) scan them with a genuine decoder — including
// misaligned decodes, which is where most gadgets come from. Gadget counts
// therefore track code size and mix for the right structural reason.
#ifndef SRC_SECURITY_ROP_H_
#define SRC_SECURITY_ROP_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "src/base/bytes.h"
#include "src/base/rng.h"
#include "src/os/profile.h"

namespace kite {

// Follner et al. operation categories.
enum class InsnClass : int {
  kDataMove = 0,
  kArithmetic,
  kLogic,
  kControlFlow,
  kShiftRotate,
  kSettingFlags,
  kString,
  kFloating,
  kMisc,
  kMmx,
  kNop,
  kRet,
  kCount,
};

const char* InsnClassName(InsnClass c);
inline constexpr int kInsnClassCount = static_cast<int>(InsnClass::kCount);

// Decodes one instruction from the given position. Returns the length in
// bytes (0 if the bytes do not decode in our subset) and the class.
struct DecodedInsn {
  size_t length = 0;
  InsnClass klass = InsnClass::kMisc;
  bool valid() const { return length > 0; }
};
DecodedInsn DecodeInsn(std::span<const uint8_t> code);

// Generates a synthetic executable image of ~code.code_bytes * scale bytes
// following the profile's instruction mix.
Buffer GenerateCodeImage(const CodeProfile& code, Rng* rng, double scale = 1.0);

struct GadgetCounts {
  std::array<uint64_t, kInsnClassCount> by_class{};
  uint64_t total = 0;

  uint64_t operator[](InsnClass c) const { return by_class[static_cast<int>(c)]; }
};

// Scans code for RET-terminated gadgets of at most 24 bytes and 5
// instructions. A gadget is counted per (start, ret) pair that decodes
// cleanly; it is classified by its first instruction's class.
GadgetCounts ScanGadgets(std::span<const uint8_t> code);

// Convenience: generate an image for the profile (at `scale` of its true
// size) and scan it, scaling counts back up.
GadgetCounts AnalyzeProfile(const OsProfile& profile, double scale = 0.05,
                            uint64_t seed = 0x909);

}  // namespace kite

#endif  // SRC_SECURITY_ROP_H_
