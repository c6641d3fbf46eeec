// Unit tests for the hypervisor substrate: grant tables, event channels,
// xenstore (permissions + watches), xenbus, PCI/IOMMU.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/base/bytes.h"
#include "src/base/strings.h"
#include "src/hv/hypervisor.h"
#include "src/hv/xenbus.h"

namespace kite {
namespace {

class HvTest : public ::testing::Test {
 protected:
  Executor ex_;
  Hypervisor hv_{&ex_};
};

TEST_F(HvTest, Dom0ExistsAndIsOnline) {
  ASSERT_NE(hv_.dom0(), nullptr);
  EXPECT_EQ(hv_.dom0()->id(), 0);
  EXPECT_TRUE(hv_.dom0()->online());
}

TEST_F(HvTest, CreateDomainAssignsIds) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  Domain* b = hv_.CreateDomain("b", 2, 1024);
  EXPECT_EQ(a->id(), 1);
  EXPECT_EQ(b->id(), 2);
  EXPECT_EQ(b->vcpu_count(), 2);
  EXPECT_EQ(hv_.live_domain_count(), 3);
  EXPECT_EQ(hv_.domain(1), a);
  EXPECT_EQ(hv_.domain(99), nullptr);
}

TEST_F(HvTest, DestroyDomainRemovesStoreSubtree) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  const std::string home = a->store_home();
  EXPECT_TRUE(hv_.store().Exists(home + "/name"));
  hv_.DestroyDomain(a->id());
  EXPECT_FALSE(hv_.store().Exists(home));
  EXPECT_EQ(hv_.live_domain_count(), 1);
}

// --- Grant tables. ---

TEST_F(HvTest, GrantMapRespectsOwnership) {
  Domain* owner = hv_.CreateDomain("owner", 1, 512);
  Domain* peer = hv_.CreateDomain("peer", 1, 512);
  Domain* other = hv_.CreateDomain("other", 1, 512);
  PageRef page = AllocPage();
  page->mutable_bytes()[0] = 0x42;
  GrantRef ref = owner->grant_table().GrantAccess(peer->id(), page, false);

  MappedGrant good = hv_.GrantMap(peer, owner->id(), ref, true);
  ASSERT_TRUE(good.valid());
  EXPECT_EQ(good.page()->bytes()[0], 0x42);

  // A third domain may not map someone else's grant.
  MappedGrant bad = hv_.GrantMap(other, owner->id(), ref, false);
  EXPECT_FALSE(bad.valid());
}

TEST_F(HvTest, ReadonlyGrantRefusesWriteMapping) {
  Domain* owner = hv_.CreateDomain("owner", 1, 512);
  Domain* peer = hv_.CreateDomain("peer", 1, 512);
  GrantRef ref = owner->grant_table().GrantAccess(peer->id(), AllocPage(), true);
  EXPECT_FALSE(hv_.GrantMap(peer, owner->id(), ref, true).valid());
  EXPECT_TRUE(hv_.GrantMap(peer, owner->id(), ref, false).valid());
}

TEST_F(HvTest, EndAccessFailsWhileMapped) {
  Domain* owner = hv_.CreateDomain("owner", 1, 512);
  Domain* peer = hv_.CreateDomain("peer", 1, 512);
  GrantRef ref = owner->grant_table().GrantAccess(peer->id(), AllocPage(), false);
  {
    MappedGrant map = hv_.GrantMap(peer, owner->id(), ref, false);
    ASSERT_TRUE(map.valid());
    EXPECT_FALSE(owner->grant_table().EndAccess(ref));  // Mapped: refuse.
  }
  EXPECT_TRUE(owner->grant_table().EndAccess(ref));  // Unmapped: ok.
  EXPECT_EQ(owner->grant_table().active_entry_count(), 0);
}

TEST_F(HvTest, GrantRefsAreRecycled) {
  Domain* owner = hv_.CreateDomain("owner", 1, 512);
  GrantRef a = owner->grant_table().GrantAccess(0, AllocPage(), false);
  EXPECT_TRUE(owner->grant_table().EndAccess(a));
  GrantRef b = owner->grant_table().GrantAccess(0, AllocPage(), false);
  EXPECT_EQ(a, b);
}

// DestroyDomain force-drops exactly the mappings the dead domain held, in
// every table it mapped from, and leaves other mappers' mappings alone.
TEST_F(HvTest, DestroyRevokesOnlyTheDeadMappersGrants) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  Domain* b = hv_.CreateDomain("b", 1, 512);
  Domain* c = hv_.CreateDomain("c", 1, 512);
  Domain* d = hv_.CreateDomain("d", 1, 512);
  GrantTable& bt = b->grant_table();
  GrantTable& ct = c->grant_table();
  const GrantRef b1 = bt.GrantAccess(a->id(), AllocPage(), false);
  const GrantRef b2 = bt.GrantAccess(a->id(), AllocPage(), false);
  const GrantRef c1 = ct.GrantAccess(a->id(), AllocPage(), false);
  const GrantRef bd = bt.GrantAccess(d->id(), AllocPage(), false);
  MappedGrant a_b1 = hv_.GrantMap(a, b->id(), b1, false);
  MappedGrant a_b2 = hv_.GrantMap(a, b->id(), b2, false);
  MappedGrant a_c1 = hv_.GrantMap(a, c->id(), c1, false);
  MappedGrant d_bd = hv_.GrantMap(d, b->id(), bd, false);
  ASSERT_TRUE(a_b1.valid() && a_b2.valid() && a_c1.valid() && d_bd.valid());
  EXPECT_EQ(bt.total_maps_outstanding(), 3);
  EXPECT_EQ(ct.total_maps_outstanding(), 1);

  a_b1.Unmap();
  EXPECT_EQ(bt.total_maps_outstanding(), 2);
  const uint64_t forced = hv_.forced_grant_revocations();
  hv_.DestroyDomain(a->id());
  EXPECT_EQ(hv_.forced_grant_revocations(), forced + 2);
  EXPECT_EQ(bt.total_maps_outstanding(), 1);  // D's mapping.
  EXPECT_EQ(bt.Lookup(bd)->active_maps, 1);
  EXPECT_EQ(ct.total_maps_outstanding(), 0);
  EXPECT_TRUE(bt.EndAccess(b1));
  EXPECT_TRUE(bt.EndAccess(b2));
  EXPECT_TRUE(ct.EndAccess(c1));
  EXPECT_FALSE(bt.EndAccess(bd));  // Still mapped by D.

  // The dead mapper's stale handles unmap nothing and charge nothing.
  const uint64_t unmaps = hv_.grant_unmaps();
  a_b2.Unmap();
  a_c1.Unmap();
  EXPECT_EQ(hv_.grant_unmaps(), unmaps);

  // A domain that maps nothing changes no table when it dies.
  Domain* e = hv_.CreateDomain("e", 1, 512);
  hv_.DestroyDomain(e->id());
  EXPECT_EQ(hv_.forced_grant_revocations(), forced + 2);
  EXPECT_EQ(bt.total_maps_outstanding(), 1);
  EXPECT_EQ(bt.Lookup(bd)->active_maps, 1);
  EXPECT_EQ(ct.active_entry_count(), 0);
  d_bd.Unmap();
  EXPECT_EQ(bt.total_maps_outstanding(), 0);
  EXPECT_TRUE(bt.EndAccess(bd));
}

TEST_F(HvTest, GrantCopyMovesBytesAndChecksBounds) {
  Domain* owner = hv_.CreateDomain("owner", 1, 512);
  Domain* peer = hv_.CreateDomain("peer", 1, 512);
  PageRef page = AllocPage();
  GrantRef ref = owner->grant_table().GrantAccess(peer->id(), page, false);

  Buffer src = {1, 2, 3, 4, 5};
  EXPECT_TRUE(hv_.GrantCopyToGranted(peer, owner->id(), ref, 100, src));
  EXPECT_EQ(page->bytes()[100], 1);
  EXPECT_EQ(page->bytes()[104], 5);

  Buffer dst(5);
  EXPECT_TRUE(hv_.GrantCopyFromGranted(peer, owner->id(), ref, 100, dst));
  EXPECT_EQ(dst, src);

  // Out of bounds.
  Buffer big(kPageSize);
  EXPECT_FALSE(hv_.GrantCopyToGranted(peer, owner->id(), ref, 1, big));
}

// --- Lazily backed pages. ---

TEST_F(HvTest, UntouchedPageReadsZerosWithoutStorage) {
  Domain* owner = hv_.CreateDomain("owner", 1, 512);
  Domain* peer = hv_.CreateDomain("peer", 1, 512);
  PageRef page = AllocPage();
  EXPECT_FALSE(page->backed());
  EXPECT_EQ(page->bytes().size(), kPageSize);
  EXPECT_TRUE(std::all_of(page->bytes().begin(), page->bytes().end(),
                          [](uint8_t b) { return b == 0; }));

  GrantRef ref = owner->grant_table().GrantAccess(peer->id(), page, false);
  Buffer dst(kPageSize, 0xee);
  ASSERT_TRUE(hv_.GrantCopyFromGranted(peer, owner->id(), ref, 0, dst));
  EXPECT_EQ(dst, Buffer(kPageSize, 0));
  {
    MappedGrant map = hv_.GrantMap(peer, owner->id(), ref, /*write_access=*/true);
    ASSERT_TRUE(map.valid());
    EXPECT_EQ(map.page()->bytes()[kPageSize - 1], 0);  // A read through a writable map.
  }
  EXPECT_FALSE(page->backed());
}

TEST_F(HvTest, WriteBacksOnlyTheWrittenPage) {
  Domain* owner = hv_.CreateDomain("owner", 1, 512);
  Domain* peer = hv_.CreateDomain("peer", 1, 512);
  PageRef written = AllocPage();
  PageRef untouched = AllocPage();
  GrantRef ref = owner->grant_table().GrantAccess(peer->id(), written, false);
  owner->grant_table().GrantAccess(peer->id(), untouched, false);

  Buffer src = {7, 8, 9};
  ASSERT_TRUE(hv_.GrantCopyToGranted(peer, owner->id(), ref, 10, src));
  EXPECT_TRUE(written->backed());
  EXPECT_FALSE(untouched->backed());
  // The rest of the newly backed page is still zero.
  EXPECT_EQ(written->bytes()[9], 0);
  EXPECT_EQ(written->bytes()[10], 7);
  EXPECT_EQ(written->bytes()[12], 9);
  EXPECT_EQ(written->bytes()[13], 0);
  EXPECT_TRUE(std::all_of(untouched->bytes().begin(), untouched->bytes().end(),
                          [](uint8_t b) { return b == 0; }));
}

TEST_F(HvTest, GrantCopyToReadonlyFails) {
  Domain* owner = hv_.CreateDomain("owner", 1, 512);
  Domain* peer = hv_.CreateDomain("peer", 1, 512);
  GrantRef ref = owner->grant_table().GrantAccess(peer->id(), AllocPage(), true);
  Buffer src = {1};
  EXPECT_FALSE(hv_.GrantCopyToGranted(peer, owner->id(), ref, 0, src));
  Buffer dst(1);
  EXPECT_TRUE(hv_.GrantCopyFromGranted(peer, owner->id(), ref, 0, dst));
}

TEST_F(HvTest, GrantOperationsChargeCpu) {
  Domain* owner = hv_.CreateDomain("owner", 1, 512);
  Domain* peer = hv_.CreateDomain("peer", 1, 512);
  GrantRef ref = owner->grant_table().GrantAccess(peer->id(), AllocPage(), false);
  const SimDuration before = peer->vcpu(0)->busy_total();
  {
    MappedGrant map = hv_.GrantMap(peer, owner->id(), ref, false);
  }
  const SimDuration after = peer->vcpu(0)->busy_total();
  EXPECT_EQ((after - before).ns(),
            (hv_.costs().grant_map + hv_.costs().grant_unmap).ns());
  EXPECT_EQ(hv_.grant_maps(), 1u);
  EXPECT_EQ(hv_.grant_unmaps(), 1u);
}

// --- Event channels. ---

TEST_F(HvTest, EventChannelDelivery) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  Domain* b = hv_.CreateDomain("b", 1, 512);
  EvtPort pa = hv_.EventAllocUnbound(a, b->id());
  EvtPort pb = hv_.EventBindInterdomain(b, a->id(), pa);
  ASSERT_NE(pb, kInvalidPort);

  int a_irqs = 0;
  int b_irqs = 0;
  hv_.EventSetHandler(a, pa, [&] { ++a_irqs; });
  hv_.EventSetHandler(b, pb, [&] { ++b_irqs; });

  hv_.EventSend(a, pa);  // a → b.
  ex_.RunUntilIdle();
  EXPECT_EQ(b_irqs, 1);
  EXPECT_EQ(a_irqs, 0);

  hv_.EventSend(b, pb);  // b → a.
  ex_.RunUntilIdle();
  EXPECT_EQ(a_irqs, 1);
}

TEST_F(HvTest, EventsPendingCoalesce) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  Domain* b = hv_.CreateDomain("b", 1, 512);
  EvtPort pa = hv_.EventAllocUnbound(a, b->id());
  EvtPort pb = hv_.EventBindInterdomain(b, a->id(), pa);
  int b_irqs = 0;
  hv_.EventSetHandler(b, pb, [&] { ++b_irqs; });
  hv_.EventSend(a, pa);
  hv_.EventSend(a, pa);
  hv_.EventSend(a, pa);
  ex_.RunUntilIdle();
  EXPECT_EQ(b_irqs, 1);
  // After delivery, a new send produces a new interrupt.
  hv_.EventSend(a, pa);
  ex_.RunUntilIdle();
  EXPECT_EQ(b_irqs, 2);
}

TEST_F(HvTest, BindRequiresMatchingRemote) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  Domain* b = hv_.CreateDomain("b", 1, 512);
  Domain* c = hv_.CreateDomain("c", 1, 512);
  EvtPort pa = hv_.EventAllocUnbound(a, b->id());
  // c was not the designated remote.
  EXPECT_EQ(hv_.EventBindInterdomain(c, a->id(), pa), kInvalidPort);
  // Correct remote binds fine.
  EXPECT_NE(hv_.EventBindInterdomain(b, a->id(), pa), kInvalidPort);
  // Double-bind fails.
  EXPECT_EQ(hv_.EventBindInterdomain(b, a->id(), pa), kInvalidPort);
}

TEST_F(HvTest, SendAfterPeerCloseFails) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  Domain* b = hv_.CreateDomain("b", 1, 512);
  EvtPort pa = hv_.EventAllocUnbound(a, b->id());
  EvtPort pb = hv_.EventBindInterdomain(b, a->id(), pa);
  hv_.EventClose(b, pb);
  EXPECT_FALSE(hv_.EventSend(a, pa));
}

TEST_F(HvTest, EventToDestroyedDomainIsDropped) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  Domain* b = hv_.CreateDomain("b", 1, 512);
  EvtPort pa = hv_.EventAllocUnbound(a, b->id());
  EvtPort pb = hv_.EventBindInterdomain(b, a->id(), pa);
  int b_irqs = 0;
  hv_.EventSetHandler(b, pb, [&] { ++b_irqs; });
  hv_.EventSend(a, pa);
  hv_.DestroyDomain(b->id());  // Destroy while the event is in flight.
  ex_.RunUntilIdle();
  EXPECT_EQ(b_irqs, 0);
}

// --- Xenstore. ---

TEST_F(HvTest, StoreReadWriteList) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  EXPECT_TRUE(a->StoreWrite(a->store_home() + "/device/vif/0/mac", "aa:bb"));
  EXPECT_EQ(a->StoreRead(a->store_home() + "/device/vif/0/mac").value_or(""), "aa:bb");
  auto children = a->StoreList(a->store_home() + "/device/vif");
  ASSERT_TRUE(children.has_value());
  ASSERT_EQ(children->size(), 1u);
  EXPECT_EQ((*children)[0], "0");
}

TEST_F(HvTest, StorePermissionsIsolateDomains) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  Domain* b = hv_.CreateDomain("b", 1, 512);
  ASSERT_TRUE(a->StoreWrite(a->store_home() + "/secret", "s3cret"));
  // b cannot read a's subtree.
  EXPECT_FALSE(b->StoreRead(a->store_home() + "/secret").has_value());
  // Dom0 grants b access; now it can.
  hv_.store().SetPermission(kDom0, a->store_home() + "/secret", b->id());
  EXPECT_TRUE(b->StoreRead(a->store_home() + "/secret").has_value());
}

TEST_F(HvTest, StoreCannotWriteIntoForeignTree) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  Domain* b = hv_.CreateDomain("b", 1, 512);
  EXPECT_FALSE(b->StoreWrite(a->store_home() + "/evil", "x"));
  EXPECT_FALSE(hv_.store().Exists(a->store_home() + "/evil"));
}

TEST_F(HvTest, StoreIntRoundTrip) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  EXPECT_TRUE(a->StoreWriteInt(a->store_home() + "/n", 12345));
  EXPECT_EQ(a->StoreReadInt(a->store_home() + "/n").value_or(-1), 12345);
  a->StoreWrite(a->store_home() + "/n", "garbage");
  EXPECT_FALSE(a->StoreReadInt(a->store_home() + "/n").has_value());
}

TEST_F(HvTest, WatchFiresOnRegistrationAndOnChange) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  std::vector<std::string> fired;
  a->StoreWatch(a->store_home() + "/device", "tok",
                [&](const std::string& path, const std::string& token) {
                  fired.push_back(path);
                  EXPECT_EQ(token, "tok");
                });
  ex_.RunUntilIdle();
  ASSERT_EQ(fired.size(), 1u);  // Registration fire.
  a->StoreWrite(a->store_home() + "/device/vif/0/state", "1");
  ex_.RunUntilIdle();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], a->store_home() + "/device/vif/0/state");
}

TEST_F(HvTest, WatchDoesNotFireOutsidePrefix) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  int fires = 0;
  a->StoreWatch(a->store_home() + "/device", "tok",
                [&](const std::string&, const std::string&) { ++fires; });
  ex_.RunUntilIdle();
  EXPECT_EQ(fires, 1);
  a->StoreWrite(a->store_home() + "/other", "x");
  ex_.RunUntilIdle();
  EXPECT_EQ(fires, 1);
}

TEST_F(HvTest, WatchFiresOnRemove) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  a->StoreWrite(a->store_home() + "/device/x", "1");
  int fires = 0;
  a->StoreWatch(a->store_home() + "/device", "tok",
                [&](const std::string&, const std::string&) { ++fires; });
  ex_.RunUntilIdle();
  fires = 0;
  a->StoreRemove(a->store_home() + "/device/x");
  ex_.RunUntilIdle();
  EXPECT_EQ(fires, 1);
}

TEST_F(HvTest, RemovedWatchStopsFiring) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  int fires = 0;
  WatchId id = a->StoreWatch(a->store_home(), "tok",
                             [&](const std::string&, const std::string&) { ++fires; });
  ex_.RunUntilIdle();
  hv_.store().RemoveWatch(id);
  a->StoreWrite(a->store_home() + "/x", "1");
  ex_.RunUntilIdle();
  EXPECT_EQ(fires, 1);  // Only the registration fire.
}

// A callback may grow the watch table and remove its own watch: the firing
// closure and its token must outlive both (run under ASan to see a miss).
TEST_F(HvTest, WatchCallbackMayAddWatchesAndRemoveItsOwn) {
  XenStore& store = hv_.store();
  auto capture = std::make_shared<std::string>(48, 'c');
  const std::string token(48, 't');  // Past the small-string buffer.
  WatchId self = 0;
  std::vector<WatchId> added;
  std::string seen_capture;
  std::string seen_token;
  self = store.AddWatch(kDom0, "/w/self", token,
                        [&, capture](const std::string&, const std::string& tok) {
                          for (int i = 0; i < 64; ++i) {
                            added.push_back(store.AddWatch(
                                kDom0, StrFormat("/w/other%d", i), "o",
                                [](const std::string&, const std::string&) {}));
                          }
                          store.RemoveWatch(self);
                          seen_capture = *capture;
                          seen_token = tok;
                        });
  capture.reset();  // The closure holds the only reference now.
  ex_.RunUntilIdle();
  EXPECT_EQ(seen_capture, std::string(48, 'c'));
  EXPECT_EQ(seen_token, token);
  EXPECT_EQ(added.size(), 64u);
  EXPECT_EQ(store.watch_count(), 64);
  store.Write(kDom0, "/w/self", "1");  // The removed watch stays silent.
  ex_.RunUntilIdle();
  EXPECT_EQ(seen_capture, std::string(48, 'c'));
}

// --- Xenbus. ---

TEST_F(HvTest, XenbusStateRoundTrip) {
  Domain* a = hv_.CreateDomain("a", 1, 512);
  XenbusClient bus(&hv_.store(), a->id());
  const std::string path = FrontendPath(a->id(), "vif", 0);
  EXPECT_EQ(bus.ReadState(path), XenbusState::kUnknown);
  EXPECT_TRUE(bus.SwitchState(path, XenbusState::kInitialised));
  EXPECT_EQ(bus.ReadState(path), XenbusState::kInitialised);
  EXPECT_TRUE(bus.SwitchState(path, XenbusState::kConnected));
  EXPECT_EQ(bus.ReadState(path), XenbusState::kConnected);
}

TEST_F(HvTest, XenbusPathConventions) {
  EXPECT_EQ(BackendPath(1, "vif", 3, 0), "/local/domain/1/backend/vif/3/0");
  EXPECT_EQ(FrontendPath(3, "vif", 0), "/local/domain/3/device/vif/0");
  EXPECT_EQ(DomainPath(7), "/local/domain/7");
}

TEST(XenbusNamesTest, AllStatesNamed) {
  EXPECT_STREQ(XenbusStateName(XenbusState::kInitialising), "Initialising");
  EXPECT_STREQ(XenbusStateName(XenbusState::kConnected), "Connected");
  EXPECT_STREQ(XenbusStateName(XenbusState::kClosed), "Closed");
}

// --- PCI passthrough. ---

class TestPciDevice : public PciDevice {
 public:
  TestPciDevice() : PciDevice("0000:05:00.0", "test-dev") {}
};

TEST_F(HvTest, PciAssignmentAndIrq) {
  Domain* dd = hv_.CreateDomain("driver", 1, 512);
  TestPciDevice dev;
  EXPECT_TRUE(hv_.AssignPci(&dev, dd));
  EXPECT_FALSE(hv_.AssignPci(&dev, hv_.dom0()));  // Already assigned.
}

}  // namespace
}  // namespace kite
