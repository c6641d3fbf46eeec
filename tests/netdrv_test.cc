// Driver-level tests for netfront/netback and blkfront/blkback behaviour
// that the end-to-end tests don't pin down: xenbus state sequences,
// notification-avoidance accounting, cold-path latency, pre-connection
// drops, and async completion ordering.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "src/core/kite.h"
#include "src/hv/xenbus.h"

namespace kite {
namespace {

const Ipv4Addr kGuestIp = Ipv4Addr::FromOctets(10, 0, 0, 10);

TEST(NetdrvTest, XenbusStatesEndConnected) {
  KiteSystem sys;
  NetworkDomain* nd = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("g");
  sys.AttachVif(guest, nd, kGuestIp);
  ASSERT_TRUE(sys.WaitConnected(guest));
  XenbusClient bus(&sys.hv().store(), kDom0);
  const std::string fe = FrontendPath(guest->domain()->id(), "vif", 0);
  const std::string be = BackendPath(nd->domain()->id(), "vif", guest->domain()->id(), 0);
  EXPECT_EQ(bus.ReadState(fe), XenbusState::kConnected);
  EXPECT_EQ(bus.ReadState(be), XenbusState::kConnected);
}

TEST(NetdrvTest, FrontendPublishesRingRefsAndEventChannel) {
  KiteSystem sys;
  NetworkDomain* nd = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("g");
  sys.AttachVif(guest, nd, kGuestIp);
  ASSERT_TRUE(sys.WaitConnected(guest));
  const std::string fe = FrontendPath(guest->domain()->id(), "vif", 0);
  XenStore& store = sys.hv().store();
  EXPECT_TRUE(store.ReadInt(kDom0, fe + "/tx-ring-ref").has_value());
  EXPECT_TRUE(store.ReadInt(kDom0, fe + "/rx-ring-ref").has_value());
  EXPECT_TRUE(store.ReadInt(kDom0, fe + "/event-channel").has_value());
  EXPECT_EQ(store.ReadInt(kDom0, fe + "/request-rx-copy").value_or(0), 1);
  EXPECT_TRUE(store.Read(kDom0, fe + "/mac").has_value());
}

TEST(NetdrvTest, OutputBeforeConnectIsDropped) {
  Executor ex;
  Hypervisor hv(&ex);
  Domain* guest = hv.CreateDomain("g", 1, 512);
  guest->set_online(true);
  // A netfront with no backend ever pairing: transmissions must drop.
  Netfront front(guest, /*backend_dom=*/0, /*devid=*/0, MacAddr::FromId(9));
  EthernetFrame frame;
  frame.src = front.mac();
  frame.dst = MacAddr::Broadcast();
  Ipv4Packet p;
  p.proto = kIpProtoUdp;
  p.l4 = UdpDatagram{};
  frame.payload = std::move(p);
  front.Output(frame);
  EXPECT_EQ(front.tx_dropped(), 1u);
  ex.RunUntilIdle();
}

TEST(NetdrvTest, RxParseOfUntouchedPageLeavesItUnbacked) {
  Executor ex;
  Hypervisor hv(&ex);
  Domain* guest = hv.CreateDomain("g", 1, 512);
  Domain* backend = hv.CreateDomain("be", 1, 512);
  guest->set_online(true);
  backend->set_online(true);
  Netfront front(guest, backend->id(), /*devid=*/0, MacAddr::FromId(9));
  // Play a backend that answers the first Rx request without copying a frame
  // into its page: the frontend parses the page's zero bytes.
  const std::string fe = FrontendPath(guest->id(), "vif", 0);
  const auto rx_ring_ref = hv.store().ReadInt(kDom0, fe + "/rx-ring-ref");
  const auto port = hv.store().ReadInt(kDom0, fe + "/event-channel");
  ASSERT_TRUE(rx_ring_ref.has_value() && port.has_value());
  MappedGrant ring_map =
      hv.GrantMap(backend, guest->id(), static_cast<GrantRef>(*rx_ring_ref), true);
  ASSERT_TRUE(ring_map.valid());
  NetRxBackRing ring(ring_map.page()->As<NetRxSharedRing>());
  ASSERT_TRUE(ring.HasUnconsumedRequests());
  const NetRxRequest req = ring.ConsumeRequest();
  ring.ProduceResponse(NetRxResponse{req.id, /*offset=*/0, /*size=*/64});
  ring.PushResponses();
  const EvtPort local =
      hv.EventBindInterdomain(backend, guest->id(), static_cast<EvtPort>(*port));
  hv.EventSend(backend, local);
  ex.RunUntilIdle();
  EXPECT_EQ(front.rx_errors(), 1u);  // 64 zero bytes are not an Ethernet frame.
  MappedGrant data = hv.GrantMap(backend, guest->id(), req.gref, false);
  ASSERT_TRUE(data.valid());
  EXPECT_FALSE(data.page()->backed());
}

// Destroys each kind of published frontend while a backend still holds the
// bound end of its event channel: the guest's port must close with the
// device, so a kick from the backend reaches no handler of the freed object.
TEST(NetdrvTest, DestroyedFrontendClosesItsEventChannel) {
  Executor ex;
  Hypervisor hv(&ex);
  Domain* guest = hv.CreateDomain("g", 1, 512);
  Domain* backend = hv.CreateDomain("be", 1, 512);
  guest->set_online(true);
  backend->set_online(true);
  XenStore& store = hv.store();
  auto expect_port_closed_on_destroy = [&](const std::string& fe, auto& front) {
    const auto port = store.ReadInt(kDom0, fe + "/event-channel");
    ASSERT_TRUE(port.has_value());
    const EvtPort bound =
        hv.EventBindInterdomain(backend, guest->id(), static_cast<EvtPort>(*port));
    ASSERT_NE(bound, kInvalidPort);
    front.reset();
    ASSERT_EQ(hv.open_port_count(guest->id()), 0);
    const uint64_t delivered = hv.events_delivered();
    EXPECT_FALSE(hv.EventSend(backend, bound));
    ex.RunUntilIdle();
    EXPECT_EQ(hv.events_delivered(), delivered);
    hv.EventClose(backend, bound);
  };

  auto net = std::make_unique<Netfront>(guest, backend->id(), /*devid=*/0, MacAddr::FromId(9));
  expect_port_closed_on_destroy(FrontendPath(guest->id(), "vif", 0), net);

  // Blkfront publishes once its backend advertises InitWait: it reads the
  // disk size from the backend directory first.
  const std::string fe = FrontendPath(guest->id(), "vbd", 51712);
  const std::string be = BackendPath(backend->id(), "vbd", guest->id(), 51712);
  store.WriteInt(kDom0, fe + "/backend-id", backend->id());
  store.WriteInt(kDom0, be + "/sectors", 2048);
  store.SetPermission(kDom0, fe, backend->id());
  store.SetPermission(kDom0, be, guest->id());
  auto blk = std::make_unique<Blkfront>(guest, backend->id(), /*devid=*/51712);
  XenbusClient(&store, backend->id()).SwitchState(be, XenbusState::kInitWait);
  ex.RunUntilIdle();
  expect_port_closed_on_destroy(fe, blk);
}

// As in Linux blkfront, a backend that does not advertise
// feature-flush-cache has no volatile cache to flush: a flush completes
// without a ring request. A backend that advertises it gets the request.
TEST(NetdrvTest, BlkfrontFlushHonoursTheBackendFlushFeature) {
  Executor ex;
  Hypervisor hv(&ex);
  Domain* guest = hv.CreateDomain("g", 1, 512);
  Domain* backend = hv.CreateDomain("be", 1, 512);
  guest->set_online(true);
  backend->set_online(true);
  XenStore& store = hv.store();
  XenbusClient bus(&store, backend->id());
  // A connected blkfront with no ring consumer behind it.
  auto connect = [&](int devid, bool flush_feature) {
    const std::string fe = FrontendPath(guest->id(), "vbd", devid);
    const std::string be = BackendPath(backend->id(), "vbd", guest->id(), devid);
    store.WriteInt(kDom0, fe + "/backend-id", backend->id());
    store.WriteInt(kDom0, be + "/sectors", 2048);
    if (flush_feature) {
      store.WriteInt(kDom0, be + "/feature-flush-cache", 1);
    }
    store.SetPermission(kDom0, fe, backend->id());
    store.SetPermission(kDom0, be, guest->id());
    auto blk = std::make_unique<Blkfront>(guest, backend->id(), devid);
    bus.SwitchState(be, XenbusState::kInitWait);
    ex.RunUntilIdle();
    bus.SwitchState(be, XenbusState::kConnected);
    ex.RunUntilIdle();
    EXPECT_TRUE(blk->connected());
    return blk;
  };

  auto plain = connect(51712, /*flush_feature=*/false);
  std::optional<bool> flushed;
  plain->Flush([&](bool ok) { flushed = ok; });
  ex.RunUntilIdle();
  ASSERT_TRUE(flushed.has_value());
  EXPECT_TRUE(*flushed);
  EXPECT_EQ(plain->requests_sent(), 0u);

  auto cached = connect(51728, /*flush_feature=*/true);
  bool called = false;
  cached->Flush([&](bool) { called = true; });
  ex.RunUntilIdle();
  EXPECT_FALSE(called);  // Waits on the ring for a backend response.
  EXPECT_EQ(cached->requests_sent(), 1u);
}

TEST(NetdrvTest, NotificationAvoidanceBatchesEvents) {
  KiteSystem sys;
  NetworkDomain* nd = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("g");
  sys.AttachVif(guest, nd, kGuestIp);
  ASSERT_TRUE(sys.WaitConnected(guest));

  auto server = guest->stack()->OpenUdp();
  server->Bind(9000);
  uint64_t rx = 0;
  server->SetRecvCallback([&](Ipv4Addr, uint16_t, const Buffer&) { ++rx; });

  const uint64_t events_before = sys.hv().events_sent();
  auto client_sock = sys.client()->stack()->OpenUdp();
  const int kDatagrams = 2000;
  // Burst: datagrams land back-to-back so the ring event protocol can elide
  // most notifications.
  for (int i = 0; i < kDatagrams; ++i) {
    sys.executor().PostAfter(Micros(2 * i), [&client_sock] {
      client_sock->SendTo(kGuestIp, 9000, Buffer(1000, 1));
    });
  }
  sys.RunFor(Millis(50));
  EXPECT_EQ(rx, static_cast<uint64_t>(kDatagrams));
  const uint64_t events = sys.hv().events_sent() - events_before;
  // ≥2 frames move per event on average under load (notification avoidance).
  EXPECT_LT(events, static_cast<uint64_t>(kDatagrams));
}

TEST(NetdrvTest, ColdPathSlowerThanWarmPath) {
  KiteSystem sys;
  NetworkDomain* nd = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("g");
  sys.AttachVif(guest, nd, kGuestIp);
  ASSERT_TRUE(sys.WaitConnected(guest));

  auto ping_once = [&] {
    double ms = 0;
    bool done = false;
    sys.client()->stack()->Ping(kGuestIp, 56, [&](bool ok, SimDuration d) {
      done = true;
      ms = d.ms();
    });
    sys.WaitUntil([&] { return done; }, Seconds(2));
    return ms;
  };
  ping_once();  // Resolve ARP / create state.
  // Warm: back-to-back pings.
  const double warm = ping_once();
  // Cold: idle for 1 s first (the paper's ping interval).
  sys.RunFor(Seconds(1));
  const double cold = ping_once();
  EXPECT_GT(cold, warm * 1.5) << "cold=" << cold << " warm=" << warm;
}

TEST(NetdrvTest, BackendInstanceCountsTraffic) {
  KiteSystem sys;
  NetworkDomain* nd = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("g");
  sys.AttachVif(guest, nd, kGuestIp);
  ASSERT_TRUE(sys.WaitConnected(guest));
  bool ok = false;
  sys.client()->stack()->Ping(kGuestIp, 56, [&](bool r, SimDuration) { ok = r; });
  ASSERT_TRUE(sys.WaitUntil([&] { return ok; }, Seconds(2)));
  auto* inst = nd->driver()->instance(guest->domain()->id(), 0);
  ASSERT_NE(inst, nullptr);
  EXPECT_GT(inst->guest_rx_frames(), 0u);  // Echo request toward the guest.
  EXPECT_GT(inst->guest_tx_frames(), 0u);  // Echo reply from the guest.
  EXPECT_EQ(inst->rx_queue_drops(), 0u);
}

TEST(BlkdrvTest, AsyncCompletionsOutOfOrderAllFinish) {
  KiteSystem::Params params;
  params.disk.capacity_bytes = 1LL << 30;
  KiteSystem sys(params);
  StorageDomain* sd = sys.CreateStorageDomain();
  GuestVm* guest = sys.CreateGuest("g");
  sys.AttachVbd(guest, sd);
  ASSERT_TRUE(sys.WaitConnected(guest));

  // A large read (slow: more data) racing small writes: all must complete
  // and the large op's completion must not block the small ones (the paper:
  // "subsequent requests are not blocked by the current request").
  std::vector<int> completion_order;
  guest->blkfront()->Read(0, 16 * 1024 * 1024, nullptr,
                          [&](bool ok) { completion_order.push_back(0); });
  for (int i = 1; i <= 4; ++i) {
    guest->blkfront()->Write(512LL * 1024 * 1024 + i * 4096, Buffer(4096, 1),
                             [&, i](bool) { completion_order.push_back(i); });
  }
  ASSERT_TRUE(sys.WaitUntil([&] { return completion_order.size() == 5; }, Seconds(30)));
  // At least one small write finished before the 16 MB read.
  EXPECT_NE(completion_order.back(), 4);
}

TEST(BlkdrvTest, FlushOrderingWithWrites) {
  KiteSystem::Params params;
  params.disk.capacity_bytes = 1LL << 30;
  params.disk_store_data = true;
  KiteSystem sys(params);
  StorageDomain* sd = sys.CreateStorageDomain();
  GuestVm* guest = sys.CreateGuest("g");
  sys.AttachVbd(guest, sd);
  ASSERT_TRUE(sys.WaitConnected(guest));

  int completed = 0;
  for (int i = 0; i < 8; ++i) {
    guest->blkfront()->Write(i * 4096, Buffer(4096, static_cast<uint8_t>(i)),
                             [&](bool) { ++completed; });
    guest->blkfront()->Flush([&](bool) { ++completed; });
  }
  ASSERT_TRUE(sys.WaitUntil([&] { return completed == 16; }, Seconds(30)));
  EXPECT_GE(sd->disk()->flushes_completed(), 8u);
}

TEST(BlkdrvTest, IndirectDisabledFallsBackToDirectChunks) {
  KiteSystem::Params params;
  params.disk.capacity_bytes = 1LL << 30;
  KiteSystem sys(params);
  BlkbackParams blkback;
  blkback.indirect_segments = false;
  StorageDomain* sd = sys.CreateStorageDomain(DriverDomainConfig{}, blkback);
  GuestVm* guest = sys.CreateGuest("g");
  sys.AttachVbd(guest, sd);
  ASSERT_TRUE(sys.WaitConnected(guest));
  EXPECT_FALSE(guest->blkfront()->indirect_supported());

  bool done = false;
  guest->blkfront()->Write(0, Buffer(512 * 1024, 0x7a), [&](bool ok) { done = ok; });
  ASSERT_TRUE(sys.WaitUntil([&] { return done; }, Seconds(10)));
  EXPECT_EQ(guest->blkfront()->indirect_requests(), 0u);
  // 512 KB at ≤44 KB per request → ≥12 ring requests.
  EXPECT_GE(guest->blkfront()->requests_sent(), 12u);
}

TEST(BlkdrvTest, BlkfrontQueueDrainsWhenRingSaturated) {
  KiteSystem::Params params;
  params.disk.capacity_bytes = 2LL << 30;
  KiteSystem sys(params);
  StorageDomain* sd = sys.CreateStorageDomain();
  GuestVm* guest = sys.CreateGuest("g");
  sys.AttachVbd(guest, sd);
  ASSERT_TRUE(sys.WaitConnected(guest));

  // 64 × 1 MB ops: far beyond the 32-slot ring; the frontend must queue and
  // drain them all.
  int completed = 0;
  for (int i = 0; i < 64; ++i) {
    guest->blkfront()->Read(static_cast<int64_t>(i) * (1 << 20), 1 << 20, nullptr,
                            [&](bool ok) { completed += ok; });
  }
  EXPECT_GT(guest->blkfront()->queued_chunks(), 0u);
  ASSERT_TRUE(sys.WaitUntil([&] { return completed == 64; }, Seconds(60)));
  EXPECT_EQ(guest->blkfront()->queued_chunks(), 0u);
}

}  // namespace
}  // namespace kite
