#include "src/core/invariants.h"

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

#include "src/base/strings.h"

namespace kite {

std::vector<Violation> InvariantChecker::Check() {
  violations_.clear();
  if (!sys_->executor().idle()) {
    // Every ledger below is only exact at quiesce; auditing a running system
    // would report in-flight work as leaks.
    Fail("not-quiesced", sys_->executor().FormatPendingEvents());
    return std::move(violations_);
  }
  CheckGrantLedger();
  CheckEventLedger();
  CheckBoundPorts();
  CheckXenstoreDomains();
  CheckBackendOrphans();
  CheckGraveyards();
  CheckNetInstances();
  CheckBlkInstances();
  CheckDiskLedger();
  CheckTcpLedger();
  CheckInstanceHealth();
  CheckMigrationsQuiesced();
  CheckRegistryOwners();
  CheckRecorderRings();
  return std::move(violations_);
}

std::string InvariantChecker::Format(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) {
    out += StrFormat("  invariant %s: %s\n", v.invariant.c_str(), v.detail.c_str());
  }
  return out;
}

void InvariantChecker::Fail(const char* invariant, std::string detail) {
  violations_.push_back(Violation{invariant, std::move(detail)});
}

void InvariantChecker::CheckGrantLedger() {
  // Every GrantMap hypercall ever issued is accounted exactly once: it
  // failed, was unmapped gracefully, was force-revoked at a domain death, or
  // is still outstanding in a live table (e.g. blkback's persistent cache).
  Hypervisor& hv = sys_->hv();
  uint64_t outstanding = 0;
  for (DomId id : hv.live_domains()) {
    outstanding +=
        static_cast<uint64_t>(hv.domain(id)->grant_table().total_maps_outstanding());
  }
  const uint64_t maps = hv.grant_maps();
  const uint64_t accounted =
      hv.grant_map_fails() + hv.grant_unmaps() + hv.forced_grant_revocations() + outstanding;
  if (maps != accounted) {
    Fail("grant-ledger",
         StrFormat("maps=%llu != fails=%llu + unmaps=%llu + forced=%llu + "
                   "outstanding=%llu (= %llu)",
                   static_cast<unsigned long long>(maps),
                   static_cast<unsigned long long>(hv.grant_map_fails()),
                   static_cast<unsigned long long>(hv.grant_unmaps()),
                   static_cast<unsigned long long>(hv.forced_grant_revocations()),
                   static_cast<unsigned long long>(outstanding),
                   static_cast<unsigned long long>(accounted)));
  }
}

void InvariantChecker::CheckEventLedger() {
  // Every accepted send is delivered exactly once — unless it was dropped by
  // fault injection, coalesced into an already-pending interrupt, or its
  // port/domain vanished in flight.
  Hypervisor& hv = sys_->hv();
  const uint64_t expected = hv.events_sent() - hv.events_dropped() -
                            hv.events_coalesced() - hv.events_vanished();
  if (hv.events_delivered() != expected) {
    Fail("event-ledger",
         StrFormat("delivered=%llu != sent=%llu - dropped=%llu - coalesced=%llu "
                   "- vanished=%llu (= %llu)",
                   static_cast<unsigned long long>(hv.events_delivered()),
                   static_cast<unsigned long long>(hv.events_sent()),
                   static_cast<unsigned long long>(hv.events_dropped()),
                   static_cast<unsigned long long>(hv.events_coalesced()),
                   static_cast<unsigned long long>(hv.events_vanished()),
                   static_cast<unsigned long long>(expected)));
  }
}

void InvariantChecker::CheckBoundPorts() {
  // DestroyDomain unlinks every peer end (EventClose); a bound port whose
  // peer domain is dead means that cleanup was skipped somewhere.
  Hypervisor& hv = sys_->hv();
  for (DomId id : hv.live_domains()) {
    for (const auto& [port, peer] : hv.BoundPorts(id)) {
      if (hv.domain(peer) == nullptr) {
        Fail("dead-peer-port",
             StrFormat("domain %d (%s) port %u is still bound to destroyed domain %d",
                       id, hv.domain(id)->name().c_str(), port, peer));
      }
    }
  }
}

void InvariantChecker::CheckXenstoreDomains() {
  // DestroyDomain removes /local/domain/<id>; an orphaned subtree would keep
  // firing watches and leak paths forever.
  Hypervisor& hv = sys_->hv();
  auto children = hv.store().List(kDom0, "/local/domain");
  if (!children.has_value()) {
    return;  // No domain dirs at all (bare system) — nothing to orphan.
  }
  for (const std::string& child : *children) {
    const int64_t id = ParseDecimal(child);
    if (id < 0 || hv.domain(static_cast<DomId>(id)) == nullptr) {
      Fail("xenstore-orphan",
           StrFormat("/local/domain/%s exists but no such live domain", child.c_str()));
    }
  }
}

void InvariantChecker::CheckBackendOrphans() {
  // A backend reaps every device whose frontend domain was destroyed and
  // removes its node, then the backend/<type>/<fe> directory once it is
  // empty. Either left behind outlives its guest in xenstore.
  Hypervisor& hv = sys_->hv();
  const std::vector<std::string> none;
  for (DomId id : hv.live_domains()) {
    for (const char* type : {"vif", "vbd"}) {
      const std::string root = StrFormat("/local/domain/%d/backend/%s", id, type);
      for (const std::string& fe : hv.store().List(kDom0, root).value_or(none)) {
        const int64_t fe_id = ParseDecimal(fe);
        if (fe_id < 0) {
          continue;
        }
        const size_t devices = hv.store().List(kDom0, root + "/" + fe).value_or(none).size();
        if (hv.domain(static_cast<DomId>(fe_id)) == nullptr) {
          Fail("backend-orphan",
               StrFormat("%s/%s is left behind by destroyed domain %s (%zu device(s))",
                         root.c_str(), fe.c_str(), fe.c_str(), devices));
        } else if (devices == 0) {
          Fail("backend-orphan", StrFormat("%s/%s is empty", root.c_str(), fe.c_str()));
        }
      }
    }
  }
}

void InvariantChecker::CheckGraveyards() {
  // At quiesce every reaped instance's worker threads must have exited and
  // the instance been freed; a populated graveyard is a parked-coroutine
  // leak.
  for (const DriverDomain* dd : sys_->driver_domains()) {
    if (const int dying = dd->dying_instance_count(); dying != 0) {
      Fail(dd->kind() == DeviceKind::kVif ? "netback-graveyard" : "blkback-graveyard",
           StrFormat("%s: %d reaped %s instance(s) never drained",
                     dd->domain()->name().c_str(), dying, DeviceTypeName(dd->kind())));
    }
  }
}

void InvariantChecker::CheckNetInstances() {
  for (const auto& nd : sys_->network_domains()) {
    if (nd->driver() == nullptr) {
      continue;
    }
    for (NetbackInstance* vif : nd->driver()->live_instances()) {
      std::string detail;
      if (!vif->RingsQuiescent(&detail)) {
        Fail("net-ring-quiescence", std::move(detail));
      }
      detail.clear();
      if (!vif->TxConservationHolds(&detail)) {
        Fail("net-tx-conservation", std::move(detail));
      }
    }
  }
}

void InvariantChecker::CheckBlkInstances() {
  for (const auto& sd : sys_->storage_domains()) {
    if (sd->driver() == nullptr) {
      continue;
    }
    for (BlkbackInstance* vbd : sd->driver()->live_instances()) {
      std::string detail;
      if (!vbd->RingQuiescent(&detail)) {
        Fail("blk-ring-quiescence", std::move(detail));
      }
    }
  }
}

void InvariantChecker::CheckDiskLedger() {
  // Every device op any blkback instance ever submitted completed on some
  // disk, as a success or an accounted I/O error. A dead instance's
  // device_ops fold into its driver domain's vbd-retired row, and disks are
  // handed over (never destroyed) across restarts, so both sides of the
  // ledger are cumulative.
  uint64_t submitted = 0;
  for (const auto& s : sys_->metrics()) {
    if (s.key.name == "device_ops") {
      submitted += static_cast<uint64_t>(s.value);
    }
  }
  uint64_t completed = 0;
  for (const auto& sd : sys_->storage_domains()) {
    BlockDevice* disk = sd->disk();
    if (disk == nullptr) {
      continue;
    }
    completed += disk->reads_completed() + disk->writes_completed() +
                 disk->flushes_completed() + disk->io_errors();
  }
  if (submitted != completed) {
    Fail("disk-ledger", StrFormat("device_ops submitted=%llu != completed=%llu",
                                  static_cast<unsigned long long>(submitted),
                                  static_cast<unsigned long long>(completed)));
  }
}

void InvariantChecker::CheckTcpLedger() {
  // Per-flow conservation over live endpoint stacks (ledgers survive conn
  // teardown but die with their stack, so only live pairs are cross-checked).
  std::vector<EtherStack*> stacks;
  if (sys_->client() != nullptr && sys_->client()->stack() != nullptr) {
    stacks.push_back(sys_->client()->stack());
  }
  for (const auto& guest : sys_->guests()) {
    if (guest->stack() != nullptr) {
      stacks.push_back(guest->stack());
    }
  }
  std::map<uint32_t, EtherStack*> by_ip;
  for (EtherStack* stack : stacks) {
    by_ip[stack->ip().value] = stack;
  }
  for (EtherStack* stack : stacks) {
    for (const auto& [key, ledger] : stack->tcp_ledgers()) {
      const std::string flow =
          StrFormat("%s:%u<->%s:%u", stack->ip().ToString().c_str(),
                    static_cast<unsigned>(key.local_port),
                    Ipv4Addr{key.peer_ip}.ToString().c_str(),
                    static_cast<unsigned>(key.peer_port));
      if (ledger.acked_in > ledger.payload_sent) {
        Fail("tcp-ledger",
             StrFormat("%s: bytes acked (%llu) exceed bytes sent (%llu)",
                       flow.c_str(),
                       static_cast<unsigned long long>(ledger.acked_in),
                       static_cast<unsigned long long>(ledger.payload_sent)));
      }
      auto peer_it = by_ip.find(key.peer_ip);
      if (peer_it == by_ip.end()) {
        continue;  // Peer stack gone (guest death): nothing to cross-check.
      }
      const auto& peer_ledgers = peer_it->second->tcp_ledgers();
      auto peer_ledger_it = peer_ledgers.find(EtherStack::TcpFlowKey{
          stack->ip().value, key.local_port, key.peer_port});
      if (peer_ledger_it == peer_ledgers.end()) {
        if (ledger.acked_in > 0) {
          Fail("tcp-ledger",
               StrFormat("%s: %llu bytes acked but peer has no flow record",
                         flow.c_str(),
                         static_cast<unsigned long long>(ledger.acked_in)));
        }
        continue;
      }
      // No acked byte lost: everything the sender saw acknowledged was
      // delivered in order on the receive side.
      if (ledger.acked_in > peer_ledger_it->second.delivered) {
        Fail("tcp-ledger",
             StrFormat("%s: %llu bytes acked but peer delivered only %llu",
                       flow.c_str(),
                       static_cast<unsigned long long>(ledger.acked_in),
                       static_cast<unsigned long long>(
                           peer_ledger_it->second.delivered)));
      }
    }
  }
}

void InvariantChecker::CheckInstanceHealth() {
  // Re-probe instead of trusting the last periodic tick: the verdicts must
  // reflect the quiesced rings, not the state mid-drain one probe ago.
  HealthMonitor& hm = sys_->health();
  hm.ProbeNow();
  for (const HealthMonitor::InstanceInfo& info : hm.Instances()) {
    if (info.state != HealthState::kHealthy) {
      Fail("instance-health",
           StrFormat("%s/%s is %s at quiesce (stall age %.3f ms, backlog %u)",
                     info.domain_name.c_str(), info.device.c_str(),
                     HealthStateName(info.state), info.stall_age.ms(),
                     static_cast<unsigned>(info.backlog)));
    }
  }
}

void InvariantChecker::CheckMigrationsQuiesced() {
  // Every move is time-bounded (drain and connect deadlines), so an idle
  // executor with a non-empty migration queue means the engine lost a poll —
  // the move would never settle no matter how long the simulation ran.
  const int in_flight = sys_->migrations_in_flight();
  if (in_flight != 0) {
    Fail("migrations-quiesced",
         StrFormat("%d VIF/VBD migration(s) still in flight at quiesce", in_flight));
  }
}

namespace {

// "vif3.0" / "vbd3.51712": a backend instance's registry device.
bool ParseBackendDevice(const std::string& device, DeviceKind* kind, DomId* fe, int* devid) {
  const std::string_view dev(device);
  if (dev.starts_with("vif")) {
    *kind = DeviceKind::kVif;
  } else if (dev.starts_with("vbd")) {
    *kind = DeviceKind::kVbd;
  } else {
    return false;
  }
  const size_t dot = dev.find('.');
  if (dot == std::string_view::npos) {
    return false;
  }
  const int64_t f = ParseDecimal(dev.substr(3, dot - 3));
  const int64_t d = ParseDecimal(dev.substr(dot + 1));
  if (f < 0 || d < 0 || f > INT32_MAX || d > INT32_MAX) {
    return false;
  }
  *fe = static_cast<DomId>(f);
  *devid = static_cast<int>(d);
  return true;
}

}  // namespace

void InvariantChecker::CheckRegistryOwners() {
  // A destroyed guest's frontends and stack, and a reaped instance, fold
  // their rows into retired rows as they die. What may still name a dead
  // domain is its driver-level and retired rows (a driver domain destroyed
  // for good); its names are the tracer's, which keeps every domain's.
  Hypervisor& hv = sys_->hv();
  std::set<std::string> live;
  for (DomId id : hv.live_domains()) {
    live.insert(hv.domain(id)->name());
  }
  std::set<std::string> dead;
  for (const auto& [id, name] : hv.tracer().process_names()) {
    if (live.count(name) == 0) {
      dead.insert(name);
    }
  }
  // Two live driver domains may share a name, so any of them may hold it.
  auto held_by = [](const auto& domains, const std::string& name, DomId fe, int devid) {
    return std::any_of(domains.begin(), domains.end(), [&](const auto& dd) {
      return dd->domain()->name() == name && dd->driver() != nullptr &&
             dd->driver()->has_instance(fe, devid);
    });
  };
  auto has_instance = [&](const std::string& name, DeviceKind kind, DomId fe, int devid) {
    return kind == DeviceKind::kVif ? held_by(sys_->network_domains(), name, fe, devid)
                                    : held_by(sys_->storage_domains(), name, fe, devid);
  };
  std::set<std::string> reported;
  for (const MetricRegistry::Sample& s : sys_->metrics()) {
    const std::string label = s.key.domain + "/" + s.key.device;
    if (reported.count(label) != 0) {
      continue;
    }
    DeviceKind kind = DeviceKind::kVif;
    DomId fe = 0;
    int devid = 0;
    if (dead.count(s.key.domain) != 0 && !s.key.device.ends_with("-driver") &&
        !s.key.device.ends_with("-retired")) {
      Fail("registry-orphan", StrFormat("%s/* names destroyed domain %s", label.c_str(),
                                        s.key.domain.c_str()));
      reported.insert(label);
    } else if (live.count(s.key.domain) != 0 &&
               ParseBackendDevice(s.key.device, &kind, &fe, &devid) &&
               !has_instance(s.key.domain, kind, fe, devid)) {
      Fail("registry-orphan",
           StrFormat("%s/* names a %s with no live or draining instance", label.c_str(),
                     DeviceTypeName(kind)));
      reported.insert(label);
    }
  }
}

void InvariantChecker::CheckRecorderRings() {
  Hypervisor& hv = sys_->hv();
  const size_t live = hv.live_domains().size();
  const size_t rings = hv.recorder().ring_count();
  if (rings > live + FlightRecorder::kDeadRings) {
    Fail("recorder-rings",
         StrFormat("%zu flight-recorder ring(s) > %zu live domain(s) + %zu dead", rings, live,
                   FlightRecorder::kDeadRings));
  }
}

}  // namespace kite
