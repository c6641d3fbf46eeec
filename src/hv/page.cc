#include "src/hv/page.h"

namespace kite {

void Page::Back() { storage_ = std::make_unique<uint8_t[]>(kPageSize); }

}  // namespace kite
