// Link-layer and network-layer addresses.
#ifndef SRC_NET_ADDR_H_
#define SRC_NET_ADDR_H_

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "src/base/strings.h"

namespace kite {

struct MacAddr {
  std::array<uint8_t, 6> octets{};

  constexpr auto operator<=>(const MacAddr&) const = default;

  bool IsBroadcast() const {
    for (uint8_t o : octets) {
      if (o != 0xff) {
        return false;
      }
    }
    return true;
  }

  std::string ToString() const {
    return StrFormat("%02x:%02x:%02x:%02x:%02x:%02x", octets[0], octets[1], octets[2],
                     octets[3], octets[4], octets[5]);
  }

  static MacAddr Broadcast() { return MacAddr{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}; }

  // Locally administered address derived from an integer id (stable for
  // tests). id 0 is reserved.
  static MacAddr FromId(uint32_t id) {
    return MacAddr{{0x02, 0x4b, 0x49, static_cast<uint8_t>(id >> 16),
                    static_cast<uint8_t>(id >> 8), static_cast<uint8_t>(id)}};
  }
};

struct Ipv4Addr {
  uint32_t value = 0;  // Host byte order.

  constexpr auto operator<=>(const Ipv4Addr&) const = default;

  bool IsZero() const { return value == 0; }
  bool IsBroadcast() const { return value == 0xffffffffu; }

  std::string ToString() const {
    return StrFormat("%u.%u.%u.%u", value >> 24 & 0xff, value >> 16 & 0xff,
                     value >> 8 & 0xff, value & 0xff);
  }

  static constexpr Ipv4Addr FromOctets(uint8_t a, uint8_t b, uint8_t c, uint8_t d) {
    return Ipv4Addr{static_cast<uint32_t>(a) << 24 | static_cast<uint32_t>(b) << 16 |
                    static_cast<uint32_t>(c) << 8 | d};
  }
  static constexpr Ipv4Addr Broadcast() { return Ipv4Addr{0xffffffffu}; }
};

inline constexpr uint32_t kSlash24 = 0xffffff00u;

}  // namespace kite

#endif  // SRC_NET_ADDR_H_
