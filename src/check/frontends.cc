#include "src/check/frontends.h"

#include "src/hv/xenbus.h"

namespace kite {

// --- RawNetFrontend. ---

RawNetFrontend::RawNetFrontend(KiteSystem* sys, NetworkDomain* netdom, GuestVm* guest,
                               int devid)
    : sys_(sys),
      netdom_(netdom),
      guest_(guest),
      devid_(devid),
      gid_(guest->domain()->id()),
      bid_(netdom->domain()->id()),
      fe_(FrontendPath(gid_, "vif", devid)) {}

bool RawNetFrontend::Connect() {
  // Toolstack half of AttachVif (no Netfront).
  sys_->WriteDeviceLink(gid_, DeviceKind::kVif, devid_, bid_);

  // Frontend half, by hand: rings, grants, event channel, publication.
  Domain* gd = guest_->domain();
  tx_page_ = AllocPage();
  rx_page_ = AllocPage();
  tx_shared_ = std::make_shared<NetTxSharedRing>(kNetRingSize);
  rx_shared_ = std::make_shared<NetRxSharedRing>(kNetRingSize);
  tx_page_->object = tx_shared_;
  rx_page_->object = rx_shared_;
  tx_ring_ = std::make_unique<NetTxFrontRing>(tx_shared_.get());
  rx_ring_ = std::make_unique<NetRxFrontRing>(rx_shared_.get());
  tx_gref_ = gd->grant_table().GrantAccess(bid_, tx_page_, /*readonly=*/false);
  rx_gref_ = gd->grant_table().GrantAccess(bid_, rx_page_, /*readonly=*/false);
  data_page_ = AllocPage();
  data_gref_ = gd->grant_table().GrantAccess(bid_, data_page_, /*readonly=*/true);
  port_ = sys_->hv().EventAllocUnbound(gd, bid_);
  gd->StoreWriteInt(fe_ + "/tx-ring-ref", tx_gref_);
  gd->StoreWriteInt(fe_ + "/rx-ring-ref", rx_gref_);
  gd->StoreWriteInt(fe_ + "/event-channel", port_);
  gd->StoreWriteInt(fe_ + "/request-rx-copy", 1);
  XenbusClient bus(&sys_->hv().store(), gid_);
  bus.SwitchState(fe_, XenbusState::kInitialised);

  return sys_->WaitUntil([this] { return vif() != nullptr && vif()->connected(); });
}

NetbackInstance* RawNetFrontend::vif() const {
  return netdom_->driver() != nullptr ? netdom_->driver()->instance(gid_, devid_)
                                      : nullptr;
}

bool RawNetFrontend::SendTx(const NetTxRequest& req) {
  if (tx_ring_->Full()) {
    return false;
  }
  tx_ring_->ProduceRequest(req);
  if (tx_ring_->PushRequests()) {
    sys_->hv().EventSend(guest_->domain(), port_);
  }
  return true;
}

std::vector<NetTxResponse> RawNetFrontend::DrainTxResponses() {
  std::vector<NetTxResponse> rsps;
  do {
    while (tx_ring_->HasUnconsumedResponses()) {
      rsps.push_back(tx_ring_->ConsumeResponse());
    }
  } while (tx_ring_->FinalCheckForResponses());
  return rsps;
}

NetTxRequest RawNetFrontend::ValidTx(uint16_t id) const {
  NetTxRequest req;
  req.gref = data_gref_;
  req.id = id;
  req.offset = 0;
  req.size = 64;
  return req;
}

// --- RawBlkFrontend. ---

RawBlkFrontend::RawBlkFrontend(KiteSystem* sys, StorageDomain* stordom, GuestVm* guest,
                               int devid)
    : sys_(sys),
      stordom_(stordom),
      guest_(guest),
      devid_(devid),
      gid_(guest->domain()->id()),
      bid_(stordom->domain()->id()),
      fe_(FrontendPath(gid_, "vbd", devid)) {}

bool RawBlkFrontend::Connect() {
  // Toolstack half of AttachVbd (no Blkfront).
  sys_->WriteDeviceLink(gid_, DeviceKind::kVbd, devid_, bid_);
  sys_->RunFor(Millis(5));  // Let blkback advertise.

  // Frontend half, by hand.
  Domain* gd = guest_->domain();
  ring_page_ = AllocPage();
  shared_ = std::make_shared<BlkSharedRing>(kBlkRingSize);
  ring_page_->object = shared_;
  ring_ = std::make_unique<BlkFrontRing>(shared_.get());
  ring_gref_ = gd->grant_table().GrantAccess(bid_, ring_page_, /*readonly=*/false);
  data_page_ = AllocPage();
  data_gref_ = gd->grant_table().GrantAccess(bid_, data_page_, /*readonly=*/false);
  port_ = sys_->hv().EventAllocUnbound(gd, bid_);
  gd->StoreWriteInt(fe_ + "/ring-ref", ring_gref_);
  gd->StoreWriteInt(fe_ + "/event-channel", port_);
  gd->StoreWriteInt(fe_ + "/feature-persistent", 0);
  XenbusClient bus(&sys_->hv().store(), gid_);
  bus.SwitchState(fe_, XenbusState::kInitialised);

  return sys_->WaitUntil([this] { return vbd() != nullptr && vbd()->connected(); });
}

BlkbackInstance* RawBlkFrontend::vbd() const {
  return stordom_->driver() != nullptr ? stordom_->driver()->instance(gid_, devid_)
                                       : nullptr;
}

uint64_t RawBlkFrontend::capacity_sectors() const {
  return static_cast<uint64_t>(stordom_->disk()->capacity_bytes()) / kSectorSize;
}

bool RawBlkFrontend::SendBlk(const BlkRequest& req) {
  if (ring_->Full()) {
    return false;
  }
  ring_->ProduceRequest(req);
  if (ring_->PushRequests()) {
    sys_->hv().EventSend(guest_->domain(), port_);
  }
  return true;
}

std::vector<BlkResponse> RawBlkFrontend::DrainResponses() {
  std::vector<BlkResponse> rsps;
  do {
    while (ring_->HasUnconsumedResponses()) {
      rsps.push_back(ring_->ConsumeResponse());
    }
  } while (ring_->FinalCheckForResponses());
  return rsps;
}

BlkRequest RawBlkFrontend::ValidRead(uint64_t id) const {
  BlkRequest req;
  req.op = BlkOp::kRead;
  req.id = id;
  req.sector_number = 0;
  req.nr_segments = 1;
  req.segments[0] = {data_gref_, 0, 7};
  return req;
}

}  // namespace kite
