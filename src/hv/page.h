// Machine pages shared between domains through the grant table.
#ifndef SRC_HV_PAGE_H_
#define SRC_HV_PAGE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>

namespace kite {

inline constexpr size_t kPageSize = 4096;

// One 4 KiB machine page. Pages are reference-counted: a domain that grants a
// page keeps it alive while a peer holds a mapping.
//
// The 4 KiB are allocated on the first write. Until then the page reads as
// one shared, immutable zero page. Reads go through bytes() and writes through
// mutable_bytes(), so reading through a non-const PageRef never allocates.
//
// `object` carries a typed view of structured shared state living in the
// page (e.g. a SharedRing): the granting side attaches it, the mapping side
// retrieves it after GrantMap — the simulation analogue of both sides
// casting the mapped page to the ring struct type.
class Page {
 public:
  std::shared_ptr<void> object;

  std::span<const uint8_t> bytes() const {
    if (storage_ == nullptr) {
      return kZeros;
    }
    return std::span<const uint8_t>(storage_.get(), kPageSize);
  }
  std::span<uint8_t> mutable_bytes() {
    if (storage_ == nullptr) [[unlikely]] {
      Back();
    }
    return std::span<uint8_t>(storage_.get(), kPageSize);
  }
  // True once the page has been written and owns its own 4 KiB.
  bool backed() const { return storage_ != nullptr; }

  template <typename T>
  T* As() const {
    return static_cast<T*>(object.get());
  }

 private:
  // Allocates the zero-filled 4 KiB; out of line, off the copy loops.
  void Back();

  static constexpr std::array<uint8_t, kPageSize> kZeros{};

  std::unique_ptr<uint8_t[]> storage_;
};

using PageRef = std::shared_ptr<Page>;

inline PageRef AllocPage() { return std::make_shared<Page>(); }

}  // namespace kite

#endif  // SRC_HV_PAGE_H_
