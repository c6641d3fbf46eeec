// guest_churn: a closed loop of one guest lifecycle at a time, with a seeded
// think time between lifecycles, beside a standing fleet of 32 guests that
// each have a VIF and a VBD. One lifecycle creates a guest, attaches a VIF
// and a VBD, waits for both to connect, pings the client once, reads 4 KB
// once, destroys the guest and waits for both backends to reap it. This is
// the only steady-state view of the control plane: xenstore watches and
// lookups, grants, backend instance creation and reaping.
//
// All lifecycles of a round run in one system, so anything a destroyed guest
// leaves behind (xenstore directories, registry keys) accumulates and slows
// later lifecycles, as it would on a long-lived host.
#include <algorithm>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

using namespace kite;

constexpr int kFleet = 32;
constexpr int kWarmupLifecycles = 3;
constexpr int kWindowLifecycles = 300;
constexpr int64_t kReadBytes = 4096;
// Reads land in a 64 MB area past the fleet's, which nothing writes.
constexpr int64_t kReadAreaBase = 1LL << 30;
constexpr int64_t kReadAreaBlocks = (64LL << 20) / kReadBytes;
const Ipv4Addr kChurnIp = Ipv4Addr::FromOctets(10, 0, 0, 200);
constexpr SimDuration kStepTimeout = Seconds(1);
// Mean think time between lifecycles. It also moves each lifecycle against
// the backends' periodic scans, so the seed reaches the simulated timeline.
constexpr double kMeanThinkNs = 1e6;

class GuestChurn : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    KiteSystem::Params params = BaseParams();
    params.disk_store_data = true;
    sys_ = std::make_unique<KiteSystem>(params);
    netdom_ = sys_->CreateNetworkDomain();
    stordom_ = sys_->CreateStorageDomain();
    BringUpFleet(kFleet, netdom_, stordom_, 10);
    vif_reaped_ = sys_->metric_registry().counter(netdom_->domain()->name(), "vif-driver",
                                                  "instances_reaped");
    vbd_reaped_ = sys_->metric_registry().counter(stordom_->domain()->name(), "vbd-driver",
                                                  "instances_reaped");
    for (int i = 0; i < kWarmupLifecycles; ++i) {
      Lifecycle();
    }
  }

  void RunWindow() override {
    BeginWindow();
    for (int i = 0; i < kWindowLifecycles; ++i) {
      ++result_.attempted;
      Lifecycle();
    }
    EndWindow();
  }

 private:
  void Lifecycle() {
    sys_->RunFor(Nanos(static_cast<int64_t>(rng_.Exponential(kMeanThinkNs))));
    const int64_t t0 = sys_->Now().ns();
    const size_t ping_bytes = 56 + rng_.Below(1024);
    const int64_t read_offset =
        kReadAreaBase + static_cast<int64_t>(rng_.Below(kReadAreaBlocks)) * kReadBytes;
    GuestVm* guest = nullptr;
    bool ok = false;
    bool mismatched = false;
    config_.spans->Time("core.bringup", sys_.get(), [&] {
      guest = sys_->CreateGuest("churn-" + std::to_string(serial_++), 1, 512);
      sys_->AttachVif(guest, netdom_, kChurnIp);
      sys_->AttachVbd(guest, stordom_);
      ok = sys_->WaitConnected(guest, kStepTimeout);
    });
    if (ok) {
      bool pinged = false;
      guest->stack()->Ping(
          sys_->client_ip(), ping_bytes, [&](bool r, SimDuration) { pinged = r; },
          kStepTimeout);
      ok = sys_->WaitUntil([&] { return pinged; }, kStepTimeout);
    }
    if (ok) {
      bool read_done = false;
      bool read_ok = false;
      Buffer data;
      config_.spans->Time("blkdrv.submit_call", sys_.get(), [&] {
        guest->blkfront()->Read(read_offset, kReadBytes, &data, [&](bool r) {
          read_done = true;
          read_ok = r;
        });
      });
      ok = sys_->WaitUntil([&] { return read_done; }, kStepTimeout) && read_ok;
      // Nothing writes the read area, so the block must read back as zeros.
      if (ok && (data.size() != static_cast<size_t>(kReadBytes) ||
                 std::any_of(data.begin(), data.end(), [](uint8_t b) { return b != 0; }))) {
        Mismatch("churn guest's first read returned wrong data");  // Counts the failure.
        mismatched = true;
      }
    }
    const uint64_t vif_before = vif_reaped_->value();
    const uint64_t vbd_before = vbd_reaped_->value();
    if (config_.traced) {
      SaveLedger(guest);
    }
    bool reaped = false;
    config_.spans->Time("core.teardown", sys_.get(), [&] {
      sys_->DestroyGuest(guest);
      reaped = sys_->WaitUntil(
          [&] {
            return vif_reaped_->value() > vif_before && vbd_reaped_->value() > vbd_before;
          },
          kStepTimeout);
    });
    if (mismatched) {
      return;
    }
    if (!ok || !reaped) {
      ++result_.failed;
    } else {
      const int64_t now = sys_->Now().ns();
      result_.latency_ns.push_back(now - t0);
      result_.sim_end_ns = std::max(result_.sim_end_ns, now);
    }
  }

  NetworkDomain* netdom_ = nullptr;
  StorageDomain* stordom_ = nullptr;
  Counter* vif_reaped_ = nullptr;
  Counter* vbd_reaped_ = nullptr;
  int serial_ = 0;
  SeededRng rng_{config_.seed};
};

}  // namespace

std::unique_ptr<Workload> MakeGuestChurn(const WorkloadConfig& config) {
  return std::make_unique<GuestChurn>(config);
}

}  // namespace perfbench
