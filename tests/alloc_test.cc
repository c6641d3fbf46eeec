// Allocation budgets of the receive data path and of a BMK thread's wake.
//
// Streams 8 KB UDP datagrams from the client machine to one guest, through
// the client NIC, the wire, the network domain's NIC and bridge, netback's
// grant copy, netfront and the guest stack's reassembly, and counts the
// payload-sized heap allocations each datagram costs. A frame is moved from
// hop to hop; its bytes are copied only where the modelled system copies
// them. One more copy per frame anywhere on the path raises the count by
// five or six per datagram and fails the budget. A BMK thread parked on a
// wake flag is signalled and woken a thousand times with no allocation.
//
// This test is its own executable because it replaces the global
// operator new and operator delete.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "src/core/kite.h"

namespace {

// Allocations of at least this many bytes count as payload-sized: every
// frame on the path carries a 1,480-byte fragment or more, and no other
// per-datagram allocation is this large.
constexpr std::size_t kPayloadSized = 1024;

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_payload_sized{0};

void* Allocate(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (size >= kPayloadSized) {
      g_payload_sized.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace kite {
namespace {

constexpr size_t kDatagramBytes = 8192;
constexpr uint16_t kPort = 5001;
constexpr int kWarmupDatagrams = 200;
constexpr int kMeasuredDatagrams = 600;
constexpr SimDuration kGap = Micros(50);

// Payload-sized allocations per datagram on the path above:
//   1  the sender's 8,192-byte buffer;
//   1  the serialized 8,200-byte datagram in FragmentIpv4;
//   5  the full 1,480-byte fragment slices (the sixth fragment is 800 bytes);
//   5  netfront's parse of those fragments out of the guest page;
//   1  the UDP payload parsed from the reassembled datagram.
constexpr uint64_t kBudgetPerDatagram = 13;

class Streamer {
 public:
  Streamer(KiteSystem* sys, UdpSocket* tx, Ipv4Addr dst) : sys_(sys), tx_(tx), dst_(dst) {}

  // Sends `count` datagrams, one every kGap, each scheduling the next.
  void Start(int count) {
    left_ = count;
    SendNext();
  }
  bool done() const { return left_ == 0; }

 private:
  void SendNext() {
    if (left_ == 0) {
      return;
    }
    --left_;
    tx_->SendTo(dst_, kPort, Buffer(kDatagramBytes, 0x6b));
    sys_->executor().PostAfter(kGap, [this] { SendNext(); });
  }

  KiteSystem* sys_;
  UdpSocket* tx_;
  Ipv4Addr dst_;
  int left_ = 0;
};

TEST(AllocBudgetTest, ClientToGuestDatagramsStayWithinPayloadCopyBudget) {
  KiteSystem sys;
  NetworkDomain* netdom = sys.CreateNetworkDomain();
  GuestVm* guest = sys.CreateGuest("alloc-guest");
  const Ipv4Addr guest_ip = Ipv4Addr::FromOctets(10, 0, 0, 10);
  sys.AttachVif(guest, netdom, guest_ip);
  ASSERT_TRUE(sys.WaitConnected(guest));

  auto rx = guest->stack()->OpenUdp();
  ASSERT_TRUE(rx->Bind(kPort));
  int delivered = 0;
  rx->SetRecvCallback([&](Ipv4Addr, uint16_t, const Buffer& payload) {
    if (payload.size() == kDatagramBytes) {
      ++delivered;
    }
  });
  auto tx = sys.client()->stack()->OpenUdp();
  Streamer streamer(&sys, tx.get(), guest_ip);

  streamer.Start(kWarmupDatagrams);
  ASSERT_TRUE(sys.WaitUntil(
      [&] { return streamer.done() && delivered == kWarmupDatagrams; }, Seconds(1)));

  delivered = 0;
  g_payload_sized = 0;
  g_counting = true;
  streamer.Start(kMeasuredDatagrams);
  const bool all_delivered = sys.WaitUntil(
      [&] { return streamer.done() && delivered == kMeasuredDatagrams; }, Seconds(1));
  g_counting = false;

  ASSERT_TRUE(all_delivered) << delivered << " of " << kMeasuredDatagrams << " delivered";
  const uint64_t counted = g_payload_sized.load();
  EXPECT_LE(counted, kBudgetPerDatagram * kMeasuredDatagrams)
      << static_cast<double>(counted) / kMeasuredDatagrams
      << " payload-sized allocations per datagram";
}

Task FlagWaiter(WakeFlag* flag, int* wakes) {
  for (;;) {
    co_await flag->Wait();
    ++*wakes;
  }
}

TEST(AllocBudgetTest, FlagSignalToWakeAllocatesNothing) {
  constexpr int kCycles = 1000;
  Executor ex;
  Vcpu cpu(&ex);
  BmkSched sched(&ex, &cpu);
  WakeFlag flag(&sched);
  int wakes = 0;
  sched.Spawn([&] { return FlagWaiter(&flag, &wakes); });
  flag.Signal();  // Warm-up: the executor's first event chunk.
  ex.RunUntilIdle();

  g_allocations = 0;
  g_counting = true;
  for (int i = 0; i < kCycles; ++i) {
    flag.Signal();
    ex.RunUntilIdle();
  }
  g_counting = false;

  EXPECT_EQ(wakes, kCycles + 1);
  EXPECT_EQ(g_allocations.load(), 0u) << "over " << kCycles << " signal-to-wake cycles";
}

}  // namespace
}  // namespace kite
