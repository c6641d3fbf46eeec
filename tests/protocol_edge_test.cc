// Edge cases of the incremental protocol parsers (HTTP/RESP/memcached):
// requests split across TCP segments, multiple requests in one segment,
// and malformed input — plus OS-profile invariants, plus misbehaving PV
// frontends pushing malformed ring entries at netback/blkback.
#include <gtest/gtest.h>

#include "src/blk/blkif.h"
#include "src/core/kite.h"
#include "src/net/nic.h"
#include "src/net/stack.h"
#include "src/net/tcp.h"
#include "src/netdrv/netif_ring.h"
#include "src/os/profile.h"
#include "src/workloads/http.h"
#include "src/workloads/memcached.h"
#include "src/workloads/redis.h"

namespace kite {
namespace {

const Ipv4Addr kIpA = Ipv4Addr::FromOctets(10, 0, 0, 1);
const Ipv4Addr kIpB = Ipv4Addr::FromOctets(10, 0, 0, 2);

class ProtocolPair : public ::testing::Test {
 protected:
  ProtocolPair() {
    nic_a_ = std::make_unique<Nic>(&ex_, "a", "nicA", MacAddr::FromId(1));
    nic_b_ = std::make_unique<Nic>(&ex_, "b", "nicB", MacAddr::FromId(2));
    Nic::ConnectBackToBack(nic_a_.get(), nic_b_.get());
    client_ = std::make_unique<EtherStack>(&ex_, nullptr, nic_a_->netif());
    server_ = std::make_unique<EtherStack>(&ex_, nullptr, nic_b_->netif());
    client_->ConfigureIp(kIpA);
    server_->ConfigureIp(kIpB);
  }

  // Opens a raw TCP connection and sends `chunks` with small gaps so each
  // lands in its own segment.
  TcpConn* SendChunks(uint16_t port, std::vector<std::string> chunks,
                      std::string* response) {
    TcpConn* conn = client_->ConnectTcp(kIpB, port, [](TcpConn*) {});
    conn->SetDataCallback([response](std::span<const uint8_t> data) {
      response->append(reinterpret_cast<const char*>(data.data()), data.size());
    });
    SimDuration at = Millis(1);
    for (const std::string& chunk : chunks) {
      ex_.PostAfter(at, [conn, chunk] {
        conn->Send(std::span<const uint8_t>(
            reinterpret_cast<const uint8_t*>(chunk.data()), chunk.size()));
      });
      at += Millis(1);
    }
    return conn;
  }

  Executor ex_;
  std::unique_ptr<Nic> nic_a_, nic_b_;
  std::unique_ptr<EtherStack> client_, server_;
};

TEST_F(ProtocolPair, HttpRequestSplitAcrossSegments) {
  HttpServer http(server_.get(), 80);
  http.AddFile("/x", 100);
  std::string response;
  SendChunks(80, {"GET /", "x HTT", "P/1.0\r\n", "\r\n"}, &response);
  ex_.RunUntilIdle();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length: 100"), std::string::npos);
}

TEST_F(ProtocolPair, HttpTwoPipelinedRequestsInOneSegment) {
  HttpServer http(server_.get(), 80);
  http.AddFile("/x", 10);
  std::string response;
  SendChunks(80, {"GET /x HTTP/1.0\r\n\r\nGET /x HTTP/1.0\r\n\r\n"}, &response);
  ex_.RunUntilIdle();
  // Two complete responses.
  size_t first = response.find("200 OK");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(response.find("200 OK", first + 1), std::string::npos);
  EXPECT_EQ(http.requests_served(), 2u);
}

TEST_F(ProtocolPair, HttpMalformedRequestGets404) {
  HttpServer http(server_.get(), 80);
  std::string response;
  SendChunks(80, {"BOGUS nonsense\r\n\r\n"}, &response);
  ex_.RunUntilIdle();
  EXPECT_NE(response.find("404"), std::string::npos);
}

TEST_F(ProtocolPair, RedisCommandSplitAcrossSegments) {
  RedisServer redis(server_.get(), 6379);
  std::string response;
  Buffer cmd = RespEncodeCommand({"SET", "split-key", "split-value"});
  const std::string cmd_str(cmd.begin(), cmd.end());
  SendChunks(6379, {cmd_str.substr(0, 7), cmd_str.substr(7, 11), cmd_str.substr(18)},
             &response);
  ex_.RunUntilIdle();
  EXPECT_EQ(response, "+OK\r\n");
  EXPECT_EQ(redis.sets(), 1u);
  EXPECT_EQ(redis.keys(), 1u);
}

TEST_F(ProtocolPair, RedisPipelinedBatchInOneSegment) {
  RedisServer redis(server_.get(), 6379);
  Buffer batch;
  for (int i = 0; i < 5; ++i) {
    Buffer cmd = RespEncodeCommand({"SET", StrFormat("k%d", i), "v"});
    batch.insert(batch.end(), cmd.begin(), cmd.end());
  }
  Buffer get = RespEncodeCommand({"GET", "k3"});
  batch.insert(batch.end(), get.begin(), get.end());
  std::string response;
  SendChunks(6379, {std::string(batch.begin(), batch.end())}, &response);
  ex_.RunUntilIdle();
  EXPECT_EQ(redis.sets(), 5u);
  EXPECT_EQ(redis.gets(), 1u);
  EXPECT_NE(response.find("$1\r\nv\r\n"), std::string::npos);
}

TEST_F(ProtocolPair, RedisUnknownCommandErrors) {
  RedisServer redis(server_.get(), 6379);
  Buffer cmd = RespEncodeCommand({"FLUSHALL"});
  std::string response;
  SendChunks(6379, {std::string(cmd.begin(), cmd.end())}, &response);
  ex_.RunUntilIdle();
  EXPECT_EQ(response.rfind("-ERR", 0), 0u);
}

TEST_F(ProtocolPair, MemcachedSetDataBlockSplitFromCommandLine) {
  MemcachedServer memcached(server_.get(), 11211);
  std::string response;
  // The "set" line arrives in one segment, the data block in the next.
  SendChunks(11211, {"set key1 0 0 5\r\n", "hello", "\r\n", "get key1\r\n"}, &response);
  ex_.RunUntilIdle();
  EXPECT_NE(response.find("STORED"), std::string::npos);
  EXPECT_NE(response.find("VALUE key1 0 5\r\nhello\r\nEND"), std::string::npos);
  EXPECT_EQ(memcached.hits(), 1u);
}

TEST_F(ProtocolPair, MemcachedGetMissReturnsEnd) {
  MemcachedServer memcached(server_.get(), 11211);
  std::string response;
  SendChunks(11211, {"get nothing\r\n"}, &response);
  ex_.RunUntilIdle();
  EXPECT_EQ(response, "END\r\n");
  EXPECT_EQ(memcached.hits(), 0u);
}

TEST_F(ProtocolPair, MemcachedGarbageCommandErrors) {
  MemcachedServer memcached(server_.get(), 11211);
  std::string response;
  SendChunks(11211, {"frobnicate\r\n"}, &response);
  ex_.RunUntilIdle();
  EXPECT_EQ(response, "ERROR\r\n");
}

// --- Misbehaving PV frontends (ISSUE 2). ---
//
// These fixtures impersonate a frontend by hand: they run the toolstack
// writes AttachVif/AttachVbd would do, allocate and grant the shared rings
// themselves, and publish Initialised — but never construct a Netfront or
// Blkfront. That leaves the test in full control of every ring field, so it
// can push the exact malformed requests a compromised guest could:
// out-of-page offsets/sizes, bogus grant references, impossible segment
// counts. The backend must answer every one with an error response, count it
// in a *_bad_request metric, and keep serving well-formed requests.
//
// Every suite runs once per backend ablation (paper §5.8): the hardening
// checks live in code shared by all configurations, and these parameters
// prove no ablation path skips them.

struct NetAblation {
  const char* name;
  bool dedicated_threads;
  bool use_hv_copy;
};

// gtest lists each test with its printed parameter, and CTest's discovered
// test names include that text. Without this gtest would dump the struct's
// bytes — the name pointer, which ASLR moves on every run, and uninitialised
// padding — so the names would change from one build to the next.
void PrintTo(const NetAblation& ablation, std::ostream* os) { *os << ablation.name; }

class MisbehavingNetFrontend : public ::testing::TestWithParam<NetAblation> {
 protected:
  static constexpr int kDevid = 0;

  void SetUp() override {
    sys_ = std::make_unique<KiteSystem>();
    NetbackParams netback;
    netback.dedicated_threads = GetParam().dedicated_threads;
    netback.use_hv_copy = GetParam().use_hv_copy;
    netdom_ = sys_->CreateNetworkDomain(DriverDomainConfig{}, netback);
    guest_ = sys_->CreateGuest("evil-net-guest");
    gid_ = guest_->domain()->id();
    bid_ = netdom_->domain()->id();
    XenStore& store = sys_->hv().store();
    fe_ = FrontendPath(gid_, "vif", kDevid);
    const std::string be = BackendPath(bid_, "vif", gid_, kDevid);

    // Toolstack half of AttachVif (no Netfront).
    store.Write(kDom0, fe_ + "/backend", be);
    store.WriteInt(kDom0, fe_ + "/backend-id", bid_);
    store.WriteInt(kDom0, fe_ + "/state", static_cast<int>(XenbusState::kInitialising));
    store.Write(kDom0, be + "/frontend", fe_);
    store.WriteInt(kDom0, be + "/frontend-id", gid_);
    store.WriteInt(kDom0, be + "/state", static_cast<int>(XenbusState::kInitialising));
    store.SetPermission(kDom0, fe_, bid_);
    store.SetPermission(kDom0, be, gid_);

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
    XenbusClient bus(&store, gid_);
    bus.SwitchState(fe_, XenbusState::kInitialised);

    ASSERT_TRUE(sys_->WaitUntil([this] { return vif() != nullptr && vif()->connected(); }))
        << "backend never paired with the hand-rolled frontend";
  }

  NetbackInstance* vif() { return netdom_->driver()->instance(gid_, kDevid); }

  void SendTx(const NetTxRequest& req) {
    tx_ring_->ProduceRequest(req);
    if (tx_ring_->PushRequests()) {
      sys_->hv().EventSend(guest_->domain(), port_);
    }
    sys_->RunFor(Millis(50));
  }

  std::vector<NetTxResponse> DrainTxResponses() {
    std::vector<NetTxResponse> rsps;
    do {
      while (tx_ring_->HasUnconsumedResponses()) {
        rsps.push_back(tx_ring_->ConsumeResponse());
      }
    } while (tx_ring_->FinalCheckForResponses());
    return rsps;
  }

  std::unique_ptr<KiteSystem> sys_;
  NetworkDomain* netdom_ = nullptr;
  GuestVm* guest_ = nullptr;
  DomId gid_ = 0;
  DomId bid_ = 0;
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

TEST_P(MisbehavingNetFrontend, OversizedTxSizeRejected) {
  NetTxRequest req;
  req.gref = data_gref_;
  req.id = 7;
  req.offset = 0;
  req.size = 60000;  // 15x the page.
  SendTx(req);
  auto rsps = DrainTxResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].id, 7u);
  EXPECT_EQ(rsps[0].status, NetifStatus::kError);
  EXPECT_EQ(vif()->tx_bad_requests(), 1u);
  EXPECT_EQ(vif()->guest_tx_frames(), 0u);
}

TEST_P(MisbehavingNetFrontend, OverlappingOffsetPlusSizeRejected) {
  // Each field fits a page on its own; the sum runs 1904 bytes past it. The
  // naive check (offset < page && size < page) passes this — the overflow
  // came from the addition.
  NetTxRequest req;
  req.gref = data_gref_;
  req.id = 9;
  req.offset = 4000;
  req.size = 2000;
  SendTx(req);
  auto rsps = DrainTxResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].status, NetifStatus::kError);
  EXPECT_EQ(vif()->tx_bad_requests(), 1u);
}

TEST_P(MisbehavingNetFrontend, BogusGrantRefRejected) {
  NetTxRequest req;
  req.gref = static_cast<GrantRef>(999999);  // Never granted.
  req.id = 3;
  req.offset = 0;
  req.size = 64;
  SendTx(req);
  auto rsps = DrainTxResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].status, NetifStatus::kError);
  // Shape was fine — the copy itself failed; not a bad_request.
  EXPECT_EQ(vif()->tx_bad_requests(), 0u);
  EXPECT_EQ(vif()->guest_tx_frames(), 0u);
}

TEST_P(MisbehavingNetFrontend, ZeroSizeRejected) {
  NetTxRequest req;
  req.gref = data_gref_;
  req.id = 1;
  req.offset = 0;
  req.size = 0;
  SendTx(req);
  auto rsps = DrainTxResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].status, NetifStatus::kError);
  EXPECT_EQ(vif()->tx_bad_requests(), 1u);
}

TEST_P(MisbehavingNetFrontend, BackendSurvivesMalformedBurstThenServesValid) {
  // A burst of malformed requests with every field corrupted differently.
  const uint16_t sizes[] = {0, 5000, 65535, 2000};
  const uint16_t offsets[] = {0, 0, 4095, 4000};
  for (uint16_t i = 0; i < 4; ++i) {
    NetTxRequest req;
    req.gref = data_gref_;
    req.id = i;
    req.offset = offsets[i];
    req.size = sizes[i];
    tx_ring_->ProduceRequest(req);
  }
  if (tx_ring_->PushRequests()) {
    sys_->hv().EventSend(guest_->domain(), port_);
  }
  sys_->RunFor(Millis(50));
  auto rsps = DrainTxResponses();
  ASSERT_EQ(rsps.size(), 4u);
  for (const NetTxResponse& rsp : rsps) {
    EXPECT_EQ(rsp.status, NetifStatus::kError);
  }
  EXPECT_EQ(vif()->tx_bad_requests(), 4u);

  // The instance must still be live: an in-bounds request gets kOkay.
  NetTxRequest good;
  good.gref = data_gref_;
  good.id = 42;
  good.offset = 0;
  good.size = 64;
  SendTx(good);
  rsps = DrainTxResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].id, 42u);
  EXPECT_EQ(rsps[0].status, NetifStatus::kOkay);
  // Every rejection is visible as a named metric in the system snapshot.
  bool found = false;
  for (const auto& s : sys_->metrics()) {
    if (s.key.name == "tx_bad_request" && s.value == 4.0) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "tx_bad_request missing from the registry snapshot";
}

INSTANTIATE_TEST_SUITE_P(
    Ablations, MisbehavingNetFrontend,
    ::testing::Values(NetAblation{"Default", true, true},
                      NetAblation{"NoDedicatedThreads", false, true},
                      NetAblation{"NoHvCopy", true, false}),
    [](const ::testing::TestParamInfo<NetAblation>& info) {
      return std::string(info.param.name);
    });

struct BlkAblation {
  const char* name;
  bool persistent_grants;
  bool indirect_segments;
};

// Stable test names, as for NetAblation above.
void PrintTo(const BlkAblation& ablation, std::ostream* os) { *os << ablation.name; }

class MisbehavingBlkFrontend : public ::testing::TestWithParam<BlkAblation> {
 protected:
  static constexpr int kDevid = 51712;  // xvda.

  void SetUp() override {
    sys_ = std::make_unique<KiteSystem>();
    BlkbackParams blkback;
    blkback.persistent_grants = GetParam().persistent_grants;
    blkback.indirect_segments = GetParam().indirect_segments;
    stordom_ = sys_->CreateStorageDomain(DriverDomainConfig{}, blkback);
    guest_ = sys_->CreateGuest("evil-blk-guest");
    gid_ = guest_->domain()->id();
    bid_ = stordom_->domain()->id();
    XenStore& store = sys_->hv().store();
    fe_ = FrontendPath(gid_, "vbd", kDevid);
    const std::string be = BackendPath(bid_, "vbd", gid_, kDevid);

    // Toolstack half of AttachVbd (no Blkfront).
    store.Write(kDom0, fe_ + "/backend", be);
    store.WriteInt(kDom0, fe_ + "/backend-id", bid_);
    store.Write(kDom0, be + "/frontend", fe_);
    store.WriteInt(kDom0, be + "/frontend-id", gid_);
    store.SetPermission(kDom0, fe_, bid_);
    store.SetPermission(kDom0, be, gid_);
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
    XenbusClient bus(&store, gid_);
    bus.SwitchState(fe_, XenbusState::kInitialised);

    ASSERT_TRUE(sys_->WaitUntil([this] { return vbd() != nullptr && vbd()->connected(); }))
        << "blkback never paired with the hand-rolled frontend";
  }

  BlkbackInstance* vbd() { return stordom_->driver()->instance(gid_, kDevid); }

  void SendBlk(const BlkRequest& req) {
    ring_->ProduceRequest(req);
    if (ring_->PushRequests()) {
      sys_->hv().EventSend(guest_->domain(), port_);
    }
    sys_->RunFor(Millis(100));  // Disk latency included.
  }

  std::vector<BlkResponse> DrainResponses() {
    std::vector<BlkResponse> rsps;
    do {
      while (ring_->HasUnconsumedResponses()) {
        rsps.push_back(ring_->ConsumeResponse());
      }
    } while (ring_->FinalCheckForResponses());
    return rsps;
  }

  std::unique_ptr<KiteSystem> sys_;
  StorageDomain* stordom_ = nullptr;
  GuestVm* guest_ = nullptr;
  DomId gid_ = 0;
  DomId bid_ = 0;
  std::string fe_;
  PageRef ring_page_, data_page_;
  std::shared_ptr<BlkSharedRing> shared_;
  std::unique_ptr<BlkFrontRing> ring_;
  GrantRef ring_gref_ = kInvalidGrantRef;
  GrantRef data_gref_ = kInvalidGrantRef;
  EvtPort port_ = kInvalidPort;
};

TEST_P(MisbehavingBlkFrontend, DirectSegmentCountPastArrayRejected) {
  BlkRequest req;
  req.op = BlkOp::kWrite;
  req.id = 11;
  req.sector_number = 0;
  req.nr_segments = 200;  // The embedded array holds 11.
  SendBlk(req);
  auto rsps = DrainResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].id, 11u);
  EXPECT_EQ(rsps[0].status, BlkStatus::kError);
  EXPECT_EQ(vbd()->bad_requests(), 1u);
  EXPECT_EQ(vbd()->device_ops(), 0u);
}

TEST_P(MisbehavingBlkFrontend, InvertedSectorRangeRejected) {
  BlkRequest req;
  req.op = BlkOp::kRead;
  req.id = 12;
  req.nr_segments = 1;
  req.segments[0] = {data_gref_, /*first_sect=*/5, /*last_sect=*/2};  // bytes() underflows.
  SendBlk(req);
  auto rsps = DrainResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].status, BlkStatus::kError);
  EXPECT_EQ(vbd()->bad_requests(), 1u);
  EXPECT_EQ(vbd()->device_ops(), 0u);
}

TEST_P(MisbehavingBlkFrontend, SectorRangePastPageRejected) {
  BlkRequest req;
  req.op = BlkOp::kRead;
  req.id = 13;
  req.nr_segments = 1;
  req.segments[0] = {data_gref_, /*first_sect=*/0, /*last_sect=*/9};  // Page has 8 sectors.
  SendBlk(req);
  auto rsps = DrainResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].status, BlkStatus::kError);
  EXPECT_EQ(vbd()->bad_requests(), 1u);
}

TEST_P(MisbehavingBlkFrontend, SectorNumberPastCapacityRejected) {
  BlkRequest req;
  req.op = BlkOp::kRead;
  req.id = 14;
  req.sector_number = 1ULL << 40;  // 512 TiB into the disk.
  req.nr_segments = 1;
  req.segments[0] = {data_gref_, 0, 7};
  SendBlk(req);
  auto rsps = DrainResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].status, BlkStatus::kError);
  EXPECT_EQ(vbd()->bad_requests(), 1u);
}

TEST_P(MisbehavingBlkFrontend, RequestEndPastCapacityRejected) {
  // Starts just below capacity with a full in-page segment, so the old
  // start-only bound admitted it and the disk layer's capacity KITE_CHECK
  // became a guest-triggerable backend abort.
  const uint64_t capacity_sectors =
      static_cast<uint64_t>(stordom_->disk()->capacity_bytes()) / kSectorSize;
  BlkRequest req;
  req.op = BlkOp::kRead;
  req.id = 16;
  req.sector_number = capacity_sectors - 1;
  req.nr_segments = 1;
  req.segments[0] = {data_gref_, 0, 7};  // 8 sectors: ends 7 past the disk.
  SendBlk(req);
  auto rsps = DrainResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].status, BlkStatus::kError);
  EXPECT_EQ(vbd()->bad_requests(), 1u);
  EXPECT_EQ(vbd()->device_ops(), 0u);
}

TEST_P(MisbehavingBlkFrontend, RequestEndingExactlyAtCapacityAccepted) {
  // The flush side of the boundary: the last addressable 8 sectors are valid.
  const uint64_t capacity_sectors =
      static_cast<uint64_t>(stordom_->disk()->capacity_bytes()) / kSectorSize;
  BlkRequest req;
  req.op = BlkOp::kRead;
  req.id = 17;
  req.sector_number = capacity_sectors - kSectorsPerPage;
  req.nr_segments = 1;
  req.segments[0] = {data_gref_, 0, 7};
  SendBlk(req);
  auto rsps = DrainResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].status, BlkStatus::kOkay);
  EXPECT_EQ(vbd()->bad_requests(), 0u);
  EXPECT_EQ(vbd()->device_ops(), 1u);
}

TEST_P(MisbehavingBlkFrontend, IndirectDescriptorMapFailureCountedAndRejected) {
  BlkRequest req;
  req.op = BlkOp::kIndirect;
  req.indirect_op = BlkOp::kRead;
  req.id = 18;
  req.indirect_gref = static_cast<GrantRef>(9999);  // Never granted.
  req.nr_indirect_segments = 1;
  SendBlk(req);
  auto rsps = DrainResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].status, BlkStatus::kError);
  if (GetParam().indirect_segments) {
    EXPECT_EQ(vbd()->indirect_map_fails(), 1u);
  } else {
    // Feature off: kIndirect is rejected as a bad request before any map.
    EXPECT_EQ(vbd()->bad_requests(), 1u);
    EXPECT_EQ(vbd()->indirect_map_fails(), 0u);
  }
  EXPECT_EQ(vbd()->device_ops(), 0u);
}

TEST_P(MisbehavingBlkFrontend, IndirectSegmentCountRejected) {
  // Grant a real descriptor page so the count check — not the map — rejects.
  PageRef ind_page = AllocPage();
  auto ind_segs = std::make_shared<IndirectSegmentPage>();
  ind_segs->resize(kBlkSegsPerIndirectPage);
  ind_page->object = ind_segs;
  GrantRef ind_gref =
      guest_->domain()->grant_table().GrantAccess(bid_, ind_page, /*readonly=*/true);
  BlkRequest req;
  req.op = BlkOp::kIndirect;
  req.indirect_op = BlkOp::kRead;
  req.id = 15;
  req.indirect_gref = ind_gref;
  req.nr_indirect_segments = 500;  // Negotiated maximum is 32.
  SendBlk(req);
  auto rsps = DrainResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].status, BlkStatus::kError);
  EXPECT_EQ(vbd()->bad_requests(), 1u);
}

TEST_P(MisbehavingBlkFrontend, BackendSurvivesMalformedBurstThenServesValid) {
  BlkRequest bad;
  bad.op = BlkOp::kWrite;
  bad.id = 20;
  bad.nr_segments = 255;
  ring_->ProduceRequest(bad);
  bad.id = 21;
  bad.nr_segments = 1;
  bad.segments[0] = {data_gref_, 7, 0};
  ring_->ProduceRequest(bad);
  if (ring_->PushRequests()) {
    sys_->hv().EventSend(guest_->domain(), port_);
  }
  sys_->RunFor(Millis(100));
  auto rsps = DrainResponses();
  ASSERT_EQ(rsps.size(), 2u);
  for (const BlkResponse& rsp : rsps) {
    EXPECT_EQ(rsp.status, BlkStatus::kError);
  }
  EXPECT_EQ(vbd()->bad_requests(), 2u);

  BlkRequest good;
  good.op = BlkOp::kRead;
  good.id = 30;
  good.sector_number = 0;
  good.nr_segments = 1;
  good.segments[0] = {data_gref_, 0, 7};
  SendBlk(good);
  rsps = DrainResponses();
  ASSERT_EQ(rsps.size(), 1u);
  EXPECT_EQ(rsps[0].id, 30u);
  EXPECT_EQ(rsps[0].status, BlkStatus::kOkay);
  EXPECT_EQ(vbd()->device_ops(), 1u);
  bool found = false;
  for (const auto& s : sys_->metrics()) {
    if (s.key.name == "bad_request" && s.key.domain == "kite-stordom") {
      found = s.value == 2.0;
    }
  }
  EXPECT_TRUE(found) << "bad_request missing from the registry snapshot";
}

INSTANTIATE_TEST_SUITE_P(
    Ablations, MisbehavingBlkFrontend,
    ::testing::Values(BlkAblation{"Default", true, true},
                      BlkAblation{"NoPersistentGrants", false, true},
                      BlkAblation{"NoIndirectSegments", true, false}),
    [](const ::testing::TestParamInfo<BlkAblation>& info) {
      return std::string(info.param.name);
    });

// --- OS profile invariants. ---

TEST(OsProfileTest, AllProfilesHaveConsistentInventories) {
  for (const OsProfile* p :
       {&KiteNetworkProfile(), &KiteStorageProfile(), &UbuntuDriverDomainProfile(),
        &DefaultLinuxProfile(), &CentOsProfile(), &FedoraProfile(), &DebianProfile()}) {
    EXPECT_FALSE(p->name.empty());
    EXPECT_GT(p->ImageBytes(), 0);
    EXPECT_GT(p->BootTime().ns(), 0);
    EXPECT_FALSE(p->components.empty());
    EXPECT_GT(p->code.code_bytes, 0);
    // Exposed ⊇ used.
    const auto used = p->RequiredSyscalls();
    const auto exposed = p->ExposedSyscalls();
    for (const std::string& s : used) {
      EXPECT_TRUE(exposed.count(s)) << p->name << " missing " << s;
    }
  }
}

TEST(OsProfileTest, KiteStorageSyscallsSupersetOfCommonCore) {
  // Both Kite builds share the BMK/rump base syscalls.
  const auto net = KiteNetworkProfile().RequiredSyscalls();
  const auto storage = KiteStorageProfile().RequiredSyscalls();
  for (const char* common : {"read", "write", "open", "close", "mmap", "clock_gettime"}) {
    EXPECT_TRUE(net.count(common)) << common;
    EXPECT_TRUE(storage.count(common)) << common;
  }
  // Domain-specific syscalls differ.
  EXPECT_TRUE(net.count("sendmsg"));
  EXPECT_FALSE(storage.count("sendmsg"));
  EXPECT_TRUE(storage.count("fsync"));
  EXPECT_FALSE(net.count("fsync"));
}

TEST(OsProfileTest, DriverDomainProfileSelector) {
  EXPECT_EQ(&DriverDomainProfile(OsKind::kKiteRumprun, false), &KiteNetworkProfile());
  EXPECT_EQ(&DriverDomainProfile(OsKind::kKiteRumprun, true), &KiteStorageProfile());
  EXPECT_EQ(&DriverDomainProfile(OsKind::kUbuntuLinux, false),
            &UbuntuDriverDomainProfile());
  EXPECT_EQ(&DriverDomainProfile(OsKind::kUbuntuLinux, true),
            &UbuntuDriverDomainProfile());
}

TEST(OsProfileTest, CostProfilesOrderKiteBelowLinux) {
  const OsCostProfile& kite = KiteNetworkProfile().costs;
  const OsCostProfile& linux = UbuntuDriverDomainProfile().costs;
  EXPECT_LT(kite.syscall_cost.ns(), linux.syscall_cost.ns());
  EXPECT_LT(kite.netback_per_packet.ns(), linux.netback_per_packet.ns());
  EXPECT_LT(kite.netback_pass_latency.ns(), linux.netback_pass_latency.ns());
  EXPECT_LT(kite.cold_penalty.ns(), linux.cold_penalty.ns());
  EXPECT_LT(kite.blkback_per_request.ns(), linux.blkback_per_request.ns());
  EXPECT_LT(kite.blkback_per_segment.ns(), linux.blkback_per_segment.ns());
}

}  // namespace
}  // namespace kite
