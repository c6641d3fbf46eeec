// Randomized property tests: xenstore tree consistency under random
// operation sequences, the watch index against a scan of every watch, codec
// round-trips over random packets, ROP scanner determinism, and grant-table
// invariants under random grant/map/copy schedules, and the decimal text
// order xenbus listings follow.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/strings.h"
#include "src/hv/hypervisor.h"
#include "src/net/frame.h"
#include "src/security/rop.h"

namespace kite {
namespace {

// Exclusive upper bound of a [1, end) seed range. KITE_FUZZ_SEEDS=N widens
// every suite to N seeds without a rebuild (CI nightlies); unset or invalid
// keeps the suite's original default.
int FuzzSeedEnd(int default_end) {
  const char* env = std::getenv("KITE_FUZZ_SEEDS");
  if (env == nullptr || *env == '\0') {
    return default_end;
  }
  const int n = std::atoi(env);
  return n > 0 ? n + 1 : default_end;
}

// --- Xenstore vs a model map. ---

class XenstoreFuzz : public ::testing::TestWithParam<int> {};

TEST_P(XenstoreFuzz, MatchesModelMap) {
  Executor ex;
  Hypervisor hv(&ex);
  Domain* dom = hv.CreateDomain("fuzz", 1, 512);
  Rng rng(GetParam());
  // Model: path → value for every write we performed under our home.
  std::map<std::string, std::string> model;
  const std::string home = dom->store_home();

  auto random_path = [&] {
    std::string path = home;
    const int depth = 1 + static_cast<int>(rng.NextBelow(3));
    for (int d = 0; d < depth; ++d) {
      path += StrFormat("/n%d", static_cast<int>(rng.NextBelow(4)));
    }
    return path;
  };

  for (int op = 0; op < 1500; ++op) {
    const std::string path = random_path();
    switch (rng.NextBelow(3)) {
      case 0: {  // Write.
        const std::string value = StrFormat("v%d", op);
        ASSERT_TRUE(dom->StoreWrite(path, value));
        model[path] = value;
        break;
      }
      case 1: {  // Read + compare.
        auto got = dom->StoreRead(path);
        auto it = model.find(path);
        if (it != model.end()) {
          ASSERT_TRUE(got.has_value()) << path;
          ASSERT_EQ(*got, it->second) << path;
        } else if (got.has_value()) {
          // Intermediate node created by a deeper write: value empty.
          ASSERT_TRUE(got->empty()) << path;
        }
        break;
      }
      case 2: {  // Remove subtree; drop matching model entries.
        if (dom->StoreRemove(path)) {
          for (auto it = model.begin(); it != model.end();) {
            if (PathIsUnder(it->first, path)) {
              it = model.erase(it);
            } else {
              ++it;
            }
          }
        }
        break;
      }
    }
  }
  // Final sweep: every model entry readable with the right value.
  for (const auto& [path, value] : model) {
    auto got = dom->StoreRead(path);
    ASSERT_TRUE(got.has_value()) << path;
    EXPECT_EQ(*got, value) << path;
  }
  ex.RunUntilIdle();  // Drain watch events.
}

INSTANTIATE_TEST_SUITE_P(Seeds, XenstoreFuzz, ::testing::Range(1, FuzzSeedEnd(6)));

// --- Watch index vs a PathIsUnder scan. ---

class WatchIndexFuzz : public ::testing::TestWithParam<int> {};

// Every write and remove fires exactly the watches that a PathIsUnder scan
// in registration order would, in that order, while watches come and go.
// Components "a" and "ab" make byte prefixes that are not path prefixes;
// empty components and trailing '/' exercise the normalization.
TEST_P(WatchIndexFuzz, FiresWhatAPathIsUnderScanFires) {
  Executor ex;
  FlightRecorder recorder(&ex);
  XenStore store(&ex, &recorder);
  Rng rng(GetParam() * 7919 + 1);
  const char* const kParts[] = {"a", "ab", "b", ""};
  auto random_path = [&] {
    std::string path;
    const int depth = static_cast<int>(rng.NextBelow(4));
    for (int d = 0; d < depth; ++d) {
      path += '/';
      path += kParts[rng.NextBelow(4)];
    }
    if (rng.NextBool(0.25)) {
      path += '/';
    }
    return path;
  };

  struct Registered {
    WatchId id;
    std::string prefix;
  };
  std::vector<Registered> model;  // Registration order.
  std::vector<std::pair<WatchId, std::string>> fired;
  std::vector<std::pair<WatchId, std::string>> expected;
  auto add_watch = [&](const std::string& prefix) {
    auto slot = std::make_shared<WatchId>(0);
    *slot = store.AddWatch(kDom0, prefix, "t",
                           [&fired, slot](const std::string& path, const std::string&) {
                             fired.emplace_back(*slot, path);
                           });
    model.push_back(Registered{*slot, prefix});
    expected.emplace_back(*slot, prefix);  // The registration fire.
  };
  auto expect_scan = [&](const std::string& path) {
    for (const Registered& w : model) {
      if (PathIsUnder(path, w.prefix)) {
        expected.emplace_back(w.id, path);
      }
    }
  };

  for (const char* prefix : {"", "/", "/a", "/ab", "/a/", "/a//", "//", "/ab/b/"}) {
    add_watch(prefix);
  }
  // Drained after every step: a watch removed with its registration fire
  // still in flight fires nothing, which the scan above does not model.
  ex.RunUntilIdle();
  ASSERT_EQ(fired, expected);
  for (int op = 0; op < 600; ++op) {
    switch (rng.NextBelow(5)) {
      case 0:
        add_watch(random_path());
        break;
      case 1:
        if (!model.empty()) {
          const size_t idx = rng.NextBelow(model.size());
          store.RemoveWatch(model[idx].id);
          model.erase(model.begin() + static_cast<std::ptrdiff_t>(idx));
        }
        break;
      case 2:
      case 3: {
        const std::string path = random_path();
        ASSERT_TRUE(store.Write(kDom0, path, "v"));
        expect_scan(path);
        break;
      }
      case 4: {
        const std::string path = random_path();
        if (store.Remove(kDom0, path)) {
          expect_scan(path);
        }
        break;
      }
    }
    ex.RunUntilIdle();
    ASSERT_EQ(fired, expected) << "op " << op;
  }
  EXPECT_EQ(store.watch_count(), static_cast<int>(model.size()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WatchIndexFuzz, ::testing::Range(1, FuzzSeedEnd(6)));

// --- Codec round-trips over random packets. ---

class CodecFuzz : public ::testing::TestWithParam<int> {};

TEST_P(CodecFuzz, EthernetRoundTripRandomPackets) {
  Rng rng(GetParam() * 1000 + 7);
  for (int i = 0; i < 300; ++i) {
    EthernetFrame frame;
    frame.src = MacAddr::FromId(static_cast<uint32_t>(rng.NextU64()));
    frame.dst = MacAddr::FromId(static_cast<uint32_t>(rng.NextU64()));
    frame.ethertype = kEtherTypeIpv4;
    Ipv4Packet p;
    p.src = Ipv4Addr{static_cast<uint32_t>(rng.NextU64())};
    p.dst = Ipv4Addr{static_cast<uint32_t>(rng.NextU64())};
    p.id = static_cast<uint16_t>(rng.NextU64());
    p.ttl = static_cast<uint8_t>(1 + rng.NextBelow(255));
    const size_t payload = rng.NextBelow(1200);
    switch (rng.NextBelow(3)) {
      case 0: {
        p.proto = kIpProtoUdp;
        UdpDatagram u;
        u.src_port = static_cast<uint16_t>(rng.NextU64());
        u.dst_port = static_cast<uint16_t>(rng.NextU64());
        u.payload.resize(payload);
        for (auto& b : u.payload) {
          b = static_cast<uint8_t>(rng.NextU64());
        }
        p.l4 = std::move(u);
        break;
      }
      case 1: {
        p.proto = kIpProtoTcp;
        TcpSegment t;
        t.src_port = static_cast<uint16_t>(rng.NextU64());
        t.dst_port = static_cast<uint16_t>(rng.NextU64());
        t.seq = static_cast<uint32_t>(rng.NextU64());
        t.ack = static_cast<uint32_t>(rng.NextU64());
        t.syn = rng.NextBool(0.2);
        t.fin = rng.NextBool(0.2);
        t.ack_flag = rng.NextBool(0.8);
        t.rst = rng.NextBool(0.05);
        t.window = static_cast<uint16_t>(rng.NextU64());
        t.payload.resize(payload);
        for (auto& b : t.payload) {
          b = static_cast<uint8_t>(rng.NextU64());
        }
        p.l4 = std::move(t);
        break;
      }
      default: {
        p.proto = kIpProtoIcmp;
        IcmpMessage m;
        m.is_echo_request = rng.NextBool(0.5);
        m.ident = static_cast<uint16_t>(rng.NextU64());
        m.sequence = static_cast<uint16_t>(rng.NextU64());
        m.payload.resize(payload);
        p.l4 = std::move(m);
        break;
      }
    }
    frame.payload = std::move(p);

    Buffer bytes;
    SerializeEthernetInto(frame, &bytes);
    auto parsed = ParseEthernet(bytes);
    ASSERT_TRUE(parsed.has_value()) << "iteration " << i;
    ASSERT_NE(parsed->ip(), nullptr);
    EXPECT_EQ(parsed->ip()->src, frame.ip()->src);
    EXPECT_EQ(parsed->ip()->dst, frame.ip()->dst);
    EXPECT_EQ(parsed->ip()->proto, frame.ip()->proto);
    EXPECT_EQ(parsed->ip()->L4Bytes(), frame.ip()->L4Bytes());
    // Re-serialization is byte-identical (canonical encoding).
    Buffer again;
    SerializeEthernetInto(*parsed, &again);
    EXPECT_EQ(again, bytes);
  }
}

TEST_P(CodecFuzz, ParserRejectsRandomGarbageGracefully) {
  Rng rng(GetParam() * 77 + 3);
  for (int i = 0; i < 500; ++i) {
    Buffer junk(rng.NextBelow(200));
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    // Must never crash; almost always rejects (checksums).
    ParseEthernet(junk);
    ParseIpv4(junk);
    ParseArp(junk);
    ParseUdp(junk, Ipv4Addr{1}, Ipv4Addr{2});
    ParseTcp(junk, Ipv4Addr{1}, Ipv4Addr{2});
    ParseIcmp(junk);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Range(1, FuzzSeedEnd(5)));

// --- Fragmentation round-trip property. ---

class FragFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FragFuzz, FragmentReassembleIdentity) {
  Rng rng(GetParam());
  Ipv4Reassembler reasm;
  for (int i = 0; i < 50; ++i) {
    Ipv4Packet p;
    p.src = Ipv4Addr::FromOctets(10, 0, 0, 1);
    p.dst = Ipv4Addr::FromOctets(10, 0, 0, 2);
    p.proto = kIpProtoUdp;
    p.id = static_cast<uint16_t>(i + GetParam() * 100);
    UdpDatagram u;
    u.src_port = 1;
    u.dst_port = 2;
    u.payload.resize(1 + rng.NextBelow(20000));
    for (auto& b : u.payload) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const uint64_t digest = Fnv1a(u.payload);
    const size_t size = u.payload.size();
    p.l4 = std::move(u);

    auto frags = FragmentIpv4(p);
    // Shuffle fragments.
    for (size_t k = frags.size(); k > 1; --k) {
      std::swap(frags[k - 1], frags[rng.NextBelow(k)]);
    }
    std::optional<Ipv4Packet> whole;
    for (const auto& f : frags) {
      auto r = reasm.Add(f);
      if (r.has_value()) {
        whole = r;
      }
    }
    ASSERT_TRUE(whole.has_value()) << "size " << size;
    const UdpDatagram& out = std::get<UdpDatagram>(whole->l4);
    ASSERT_EQ(out.payload.size(), size);
    EXPECT_EQ(Fnv1a(out.payload), digest);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragFuzz, ::testing::Range(1, FuzzSeedEnd(5)));

// --- Hostile fragments interleaved with clean datagrams. ---

class FragAbuseFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FragAbuseFuzz, CleanDatagramsSurviveHostileFragments) {
  constexpr size_t kMaxPending = 16;
  // Fewer new partial datagrams than the cap while a clean one is in flight,
  // so FIFO aging can never evict it: only hostile datagrams age out.
  constexpr size_t kHostilePerClean = kMaxPending - 2;
  const Ipv4Addr clean_src = Ipv4Addr::FromOctets(10, 0, 0, 1);
  const Ipv4Addr hostile_src = Ipv4Addr::FromOctets(10, 0, 0, 66);
  const Ipv4Addr dst = Ipv4Addr::FromOctets(10, 0, 0, 2);
  Rng rng(GetParam());
  Ipv4Reassembler reasm;
  reasm.set_max_pending(kMaxPending);
  std::vector<Ipv4Packet> hostile_sent;

  auto make_hostile = [&]() {
    const uint64_t kind = rng.NextBelow(4);
    if (kind == 0 && !hostile_sent.empty()) {
      return hostile_sent[rng.NextBelow(hostile_sent.size())];  // Exact duplicate.
    }
    Ipv4Packet f;
    f.src = hostile_src;
    f.dst = dst;
    f.proto = rng.NextBool(0.8) ? kIpProtoUdp : static_cast<uint8_t>(rng.NextBelow(256));
    // Twice as many ids as the cap: partial datagrams must age out.
    f.id = static_cast<uint16_t>(rng.NextBelow(2 * kMaxPending));
    size_t offset = 0;
    size_t len = 0;
    if (kind == 1) {  // Ends past the 65,535-byte datagram.
      offset = 65528 - 8 * rng.NextBelow(8);
      len = 44 + rng.NextBelow(1480);
    } else if (kind == 2) {  // Piles up near the start: overlaps.
      offset = 8 * rng.NextBelow(4);
      len = rng.NextBelow(2000);
    } else {  // Anywhere in the datagram, sometimes past its end.
      offset = 8 * rng.NextBelow(8192);
      len = rng.NextBelow(1480);
    }
    f.frag_offset = static_cast<uint16_t>(offset);
    f.more_frags = rng.NextBool(0.7);
    Buffer bytes(len);
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    f.l4 = RawL4{std::move(bytes)};
    if (hostile_sent.size() < 64) {
      hostile_sent.push_back(f);
    } else {
      hostile_sent[rng.NextBelow(hostile_sent.size())] = f;
    }
    return f;
  };

  for (int i = 0; i < 50; ++i) {
    Ipv4Packet p;
    p.src = clean_src;
    p.dst = dst;
    p.proto = kIpProtoUdp;
    p.id = static_cast<uint16_t>(i);
    UdpDatagram u;
    u.src_port = 1;
    u.dst_port = 2;
    u.payload.resize(1 + rng.NextBelow(20000));
    for (auto& b : u.payload) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    const Buffer payload = u.payload;
    p.l4 = std::move(u);

    // The clean fragments shuffled, then exact copies of a few of them placed
    // before the final one: the datagram completes on its final fragment
    // with every copy already seen. Hostile fragments go anywhere.
    std::vector<Ipv4Packet> script = FragmentIpv4(p);
    for (size_t k = script.size(); k > 1; --k) {
      std::swap(script[k - 1], script[rng.NextBelow(k)]);
    }
    std::vector<Ipv4Packet> copies;
    for (size_t k = 0; k + 1 < script.size(); ++k) {
      if (rng.NextBool(0.2)) {
        copies.push_back(script[k]);
      }
    }
    for (Ipv4Packet& copy : copies) {
      script.insert(script.begin() + static_cast<std::ptrdiff_t>(rng.NextBelow(script.size())),
                    std::move(copy));
    }
    for (size_t k = 0; k < kHostilePerClean; ++k) {
      script.insert(script.begin() + static_cast<std::ptrdiff_t>(rng.NextBelow(script.size() + 1)),
                    make_hostile());
    }

    int delivered = 0;
    for (const Ipv4Packet& frag : script) {
      auto out = reasm.Add(frag);
      ASSERT_LE(reasm.pending_count(), kMaxPending);
      if (!out.has_value()) {
        continue;
      }
      ASSERT_LE(out->ByteSize(), kMaxIpv4DatagramBytes);
      if (out->src == clean_src) {
        ++delivered;
        const UdpDatagram* udp = std::get_if<UdpDatagram>(&out->l4);
        ASSERT_NE(udp, nullptr);
        ASSERT_EQ(out->id, p.id);
        ASSERT_EQ(udp->payload, payload) << "datagram " << i;
      }
    }
    ASSERT_EQ(delivered, 1) << "datagram " << i << " of " << payload.size() << " bytes";
  }
  // Every rule fired at least once.
  EXPECT_GT(reasm.duplicates(), 0u);
  EXPECT_GT(reasm.overlaps(), 0u);
  EXPECT_GT(reasm.oversized(), 0u);
  EXPECT_GT(reasm.length_conflicts(), 0u);
  EXPECT_GT(reasm.evicted(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FragAbuseFuzz, ::testing::Range(1, FuzzSeedEnd(5)));

// --- ROP scanner determinism and monotonicity. ---

TEST(RopPropertyTest, ScanIsDeterministic) {
  const GadgetCounts a = AnalyzeProfile(KiteNetworkProfile(), 0.02);
  const GadgetCounts b = AnalyzeProfile(KiteNetworkProfile(), 0.02);
  EXPECT_EQ(a.total, b.total);
  for (int c = 0; c < kInsnClassCount; ++c) {
    EXPECT_EQ(a.by_class[c], b.by_class[c]);
  }
}

TEST(RopPropertyTest, TotalEqualsSumOfCategories) {
  const GadgetCounts counts = AnalyzeProfile(DefaultLinuxProfile(), 0.02);
  uint64_t sum = 0;
  for (int c = 0; c < kInsnClassCount; ++c) {
    sum += counts.by_class[c];
  }
  EXPECT_EQ(counts.total, sum);
}

// --- Grant table invariants under random schedules. ---

class GrantFuzz : public ::testing::TestWithParam<int> {};

TEST_P(GrantFuzz, MapCountsNeverLeakOrUnderflow) {
  Executor ex;
  Hypervisor hv(&ex);
  Domain* owner = hv.CreateDomain("owner", 1, 512);
  Domain* peer = hv.CreateDomain("peer", 1, 512);
  Rng rng(GetParam());

  std::vector<GrantRef> granted;
  std::vector<MappedGrant> maps;
  for (int op = 0; op < 2000; ++op) {
    switch (rng.NextBelow(4)) {
      case 0: {  // Grant a new page.
        granted.push_back(
            owner->grant_table().GrantAccess(peer->id(), AllocPage(), rng.NextBool(0.3)));
        break;
      }
      case 1: {  // Map a random grant.
        if (!granted.empty()) {
          GrantRef ref = granted[rng.NextBelow(granted.size())];
          MappedGrant m = hv.GrantMap(peer, owner->id(), ref, /*write_access=*/false);
          if (m.valid()) {
            maps.push_back(std::move(m));
          }
        }
        break;
      }
      case 2: {  // Unmap a random mapping.
        if (!maps.empty()) {
          const size_t idx = rng.NextBelow(maps.size());
          maps[idx] = std::move(maps.back());
          maps.pop_back();
        }
        break;
      }
      case 3: {  // Try to end a random grant (must fail while mapped).
        if (!granted.empty()) {
          const size_t idx = rng.NextBelow(granted.size());
          GrantRef ref = granted[idx];
          const GrantTable::Entry* e = owner->grant_table().Lookup(ref);
          const bool was_mapped = e != nullptr && e->active_maps > 0;
          const bool ended = owner->grant_table().EndAccess(ref);
          if (was_mapped) {
            ASSERT_FALSE(ended);
          }
          if (ended) {
            granted[idx] = granted.back();
            granted.pop_back();
          }
        }
        break;
      }
    }
    ASSERT_EQ(owner->grant_table().total_maps_outstanding(),
              static_cast<int>(maps.size()));
  }
  maps.clear();
  EXPECT_EQ(owner->grant_table().total_maps_outstanding(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrantFuzz, ::testing::Range(1, FuzzSeedEnd(6)));

// --- Decimal text order. ---

int Sign(int v) { return (v > 0) - (v < 0); }

// CompareDecimalText orders numbers as their decimal texts compare, which is
// xenstore's child order, without formatting them.
TEST(DecimalTextOrderTest, MatchesToStringComparison) {
  const std::vector<uint32_t> edges = {0,     1,     5,      9,      10,        11,
                                       19,    99,    100,    101,    999,       1000,
                                       5171,  51712, 51713,  65535,  99999,     100000,
                                       20000, 2000,  200000, INT32_MAX - 1, INT32_MAX,
                                       UINT32_MAX};
  auto check = [](uint32_t a, uint32_t b) {
    const int want = Sign(std::to_string(a).compare(std::to_string(b)));
    ASSERT_EQ(Sign(CompareDecimalText(a, b)), want) << a << " vs " << b;
  };
  for (uint32_t a = 0; a <= 20000; ++a) {
    for (uint32_t b : edges) {
      check(a, b);
      check(b, a);
    }
    for (uint32_t b : {a + 1, a * 10, a * 10 + 9, a / 10, a * 100 + 1}) {
      check(a, b);
      check(b, a);
    }
  }
  Rng rng(20261021);
  for (int i = 0; i < 200000; ++i) {
    const auto a = static_cast<uint32_t>(rng.NextU64());
    const auto b = static_cast<uint32_t>(rng.NextBelow(i % 2 == 0 ? 20001 : 1ULL << 32));
    check(a, b);
    check(b, a);
  }
}

}  // namespace
}  // namespace kite
