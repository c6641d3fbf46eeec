// Network interface abstraction (NetBSD ifnet analogue).
//
// A NetIf is anything a stack or bridge can attach to: the physical NIC's
// interface in a driver domain, a netback VIF, or a guest netfront interface.
#ifndef SRC_NET_NETIF_H_
#define SRC_NET_NETIF_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "src/net/frame.h"

namespace kite {

class NetIf {
 public:
  NetIf(std::string ifname, MacAddr mac) : ifname_(std::move(ifname)), mac_(mac) {}
  virtual ~NetIf() = default;

  NetIf(const NetIf&) = delete;
  NetIf& operator=(const NetIf&) = delete;

  const std::string& ifname() const { return ifname_; }
  MacAddr mac() const { return mac_; }

  bool up() const { return up_; }
  void SetUp(bool up) { up_ = up; }

  // Transmits a frame out of this interface, which takes ownership of it.
  // Implementations deliver to the wire (NIC), to the peer ring
  // (VIF/netfront), etc., moving the frame rather than copying its payload.
  virtual void Output(EthernetFrame frame) = 0;

  // The attached consumer (stack or bridge) receives inbound frames here and
  // may keep them: the handler owns the frame it is given.
  void SetInputHandler(std::function<void(EthernetFrame&&)> fn) {
    input_handler_ = std::move(fn);
  }

  // Feeds a frame into this interface as if it arrived from the medium
  // (used by tests and by software devices).
  void InjectInput(EthernetFrame frame) { DeliverInput(std::move(frame)); }

 protected:
  // Called by implementations when an inbound frame is ready for the
  // consumer, which receives it by move. Dropped (counted by callers where
  // relevant) if no handler.
  void DeliverInput(EthernetFrame&& frame) {
    if (input_handler_) {
      input_handler_(std::move(frame));
    }
  }

 private:
  std::string ifname_;
  MacAddr mac_;
  bool up_ = false;
  std::function<void(EthernetFrame&&)> input_handler_;
};

}  // namespace kite

#endif  // SRC_NET_NETIF_H_
