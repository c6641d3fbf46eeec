// Hand-rolled PV frontends for protocol fuzzing.
//
// These impersonate netfront/blkfront from a guest domain: they write the
// toolstack's device link as AttachVif/AttachVbd do (WriteDeviceLink),
// allocate and grant the shared rings themselves, and publish Initialised —
// but never construct a Netfront or Blkfront. That leaves the caller in full
// control of every ring field, so it can push the exact malformed requests a
// compromised guest could. Extracted from the Misbehaving*Frontend test fixtures so the
// explore harness and the fuzz tests drive one implementation.
//
// Neither class advances simulated time: callers interleave Send*/Drain*
// with KiteSystem::RunFor so the schedule stays under the explorer's
// control.
#ifndef SRC_CHECK_FRONTENDS_H_
#define SRC_CHECK_FRONTENDS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/system.h"

namespace kite {

class RawNetFrontend {
 public:
  // `guest` must have no real VIF on `devid`. Construction only records
  // identifiers; Connect() does the work.
  RawNetFrontend(KiteSystem* sys, NetworkDomain* netdom, GuestVm* guest, int devid = 0);

  // Toolstack + frontend halves of AttachVif, then waits for the backend to
  // pair. False if the backend never connected.
  bool Connect();

  NetbackInstance* vif() const;

  // Produces + pushes + kicks one Tx request. False when the ring is full
  // (caller should drain responses and advance time first).
  bool SendTx(const NetTxRequest& req);
  // Consumes every published Tx response.
  std::vector<NetTxResponse> DrainTxResponses();
  // A well-formed request against the granted data page.
  NetTxRequest ValidTx(uint16_t id) const;

 private:
  KiteSystem* sys_;
  NetworkDomain* netdom_;
  GuestVm* guest_;
  int devid_;
  DomId gid_;
  DomId bid_;
  std::string fe_;
  PageRef tx_page_, rx_page_, data_page_;
  std::shared_ptr<NetTxSharedRing> tx_shared_;
  std::shared_ptr<NetRxSharedRing> rx_shared_;
  std::unique_ptr<NetTxFrontRing> tx_ring_;
  std::unique_ptr<NetRxFrontRing> rx_ring_;
  GrantRef tx_gref_ = kInvalidGrantRef;
  GrantRef rx_gref_ = kInvalidGrantRef;
  GrantRef data_gref_ = kInvalidGrantRef;
  EvtPort port_ = kInvalidPort;
};

class RawBlkFrontend {
 public:
  RawBlkFrontend(KiteSystem* sys, StorageDomain* stordom, GuestVm* guest,
                 int devid = 51712 /* xvda */);

  // Toolstack + frontend halves of AttachVbd (including the pause that lets
  // blkback advertise), then waits for pairing.
  bool Connect();

  BlkbackInstance* vbd() const;
  BlkFrontRing* ring() { return ring_.get(); }
  uint64_t capacity_sectors() const;

  bool SendBlk(const BlkRequest& req);
  std::vector<BlkResponse> DrainResponses();
  // A well-formed single-segment read of sector 0 into the data page.
  BlkRequest ValidRead(uint64_t id) const;

 private:
  KiteSystem* sys_;
  StorageDomain* stordom_;
  GuestVm* guest_;
  int devid_;
  DomId gid_;
  DomId bid_;
  std::string fe_;
  PageRef ring_page_, data_page_;
  std::shared_ptr<BlkSharedRing> shared_;
  std::unique_ptr<BlkFrontRing> ring_;
  GrantRef ring_gref_ = kInvalidGrantRef;
  GrantRef data_gref_ = kInvalidGrantRef;
  EvtPort port_ = kInvalidPort;
};

}  // namespace kite

#endif  // SRC_CHECK_FRONTENDS_H_
