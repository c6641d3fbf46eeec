#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "perfbench/bench.h"

namespace perfbench {

using namespace kite;

int64_t CurrentRssKb() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long long size = 0;
  long long resident = 0;
  const int n = std::fscanf(f, "%lld %lld", &size, &resident);
  std::fclose(f);
  return n == 2 ? resident * (sysconf(_SC_PAGESIZE) / 1024) : 0;
}

void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

KiteSystem::Params Workload::BaseParams() const {
  KiteSystem::Params params;
  // TCP counters are accounting-only; the traced run reads retransmits.
  params.tcp_metrics = config_.traced;
  return params;
}

void Workload::Mismatch(const std::string& what) {
  ++result_.mismatches;
  ++result_.failed;
  if (result_.first_mismatch.empty()) {
    result_.first_mismatch = what;
  }
}

std::vector<const Vcpu*> Workload::DriverVcpus() {
  std::vector<const Vcpu*> out;
  for (const auto& nd : sys_->network_domains()) {
    for (int i = 0; i < nd->domain()->vcpu_count(); ++i) {
      out.push_back(nd->domain()->vcpu(i));
    }
  }
  for (const auto& sd : sys_->storage_domains()) {
    for (int i = 0; i < sd->domain()->vcpu_count(); ++i) {
      out.push_back(sd->domain()->vcpu(i));
    }
  }
  return out;
}

int64_t Workload::DriverBusyNs() {
  int64_t total = 0;
  for (const Vcpu* v : DriverVcpus()) {
    total += v->busy_total().ns();
  }
  return total;
}

std::vector<GuestVm*> Workload::BringUpFleet(int count, NetworkDomain* netdom,
                                             StorageDomain* stordom, int first_host) {
  const int64_t h0 = HostNowNs();
  std::vector<GuestVm*> guests;
  for (int i = 0; i < count; ++i) {
    guests.push_back(sys_->CreateGuest("fleet-" + std::to_string(i), 1, 512));
  }
  auto connect_all = [&](const char* kind) {
    for (GuestVm* g : guests) {
      if (!sys_->WaitConnected(g, Seconds(5))) {
        Fatal(std::string("fleet guest failed to connect its ") + kind);
      }
    }
  };
  if (netdom != nullptr) {
    const int64_t rss0 = CurrentRssKb();
    for (int i = 0; i < count; ++i) {
      sys_->AttachVif(guests[i], netdom,
                      Ipv4Addr::FromOctets(10, 0, 0, static_cast<uint8_t>(first_host + i)));
    }
    connect_all("VIF");
    vif_rss_kb += CurrentRssKb() - rss0;
    vifs_attached += count;
  }
  if (stordom != nullptr) {
    const int64_t rss0 = CurrentRssKb();
    for (GuestVm* g : guests) {
      sys_->AttachVbd(g, stordom);
    }
    connect_all("VBD");
    vbd_rss_kb += CurrentRssKb() - rss0;
    vbds_attached += count;
  }
  bringup_host_ns += HostNowNs() - h0;
  guests_brought_up += count;
  return guests;
}

void Workload::BeginWindow() {
  // Warm-up ops are not counted, but a warm-up mismatch still fails the run.
  WindowResult fresh;
  fresh.mismatches = result_.mismatches;
  fresh.first_mismatch = result_.first_mismatch;
  result_ = std::move(fresh);
  result_.sim_start_ns = sys_->Now().ns();
  busy_at_start_ = DriverBusyNs();
}

void Workload::SaveLedger(GuestVm* guest) {
  for (int i = 0; i < guest->domain()->vcpu_count(); ++i) {
    const CpuLedger* ledger = guest->domain()->vcpu(i)->ledger();
    if (ledger == nullptr) {
      continue;
    }
    for (size_t c = 0; c < ledger->busy_ns.size(); ++c) {
      if (ledger->busy_ns[c] != 0) {
        departed_cpu_ns[CpuCategoryLabel(static_cast<uint32_t>(c))] +=
            static_cast<int64_t>(ledger->busy_ns[c]);
      }
    }
  }
}

void Workload::EndWindow() {
  result_.driver_busy_ns = DriverBusyNs() - busy_at_start_;
}

}  // namespace perfbench
