// DomainPool: shards guest devices across a fleet of driver domains.
//
// The paper's hardening story splits the single Linux driver domain into K
// lightweight Kite netback domains and M blkback domains; each guest VIF/VBD
// is served by exactly one shard. The pool is the placement policy:
//
//   - Membership is one ordered list of shards of both kinds (registration
//     order, so placement is deterministic across runs). A shard can be *closed*
//     (draining, unhealthy) without leaving the pool: closed shards receive
//     no new placements but keep serving what they already host until the
//     Rebalancer moves it away.
//   - Default placement hashes the guest's domain id over the open shards
//     of the device's kind (Fibonacci multiplicative hash), so a guest lands
//     on the same shard every run. An explicit Pin overrides the hash — for
//     experiments that need a known victim/survivor split.
//   - Load is derived, not tracked: a shard's load is the number of guest
//     devices whose toolstack link (xenstore backend-id) points at it. That
//     makes the pool agree with reality across migrations and restarts
//     without any bookkeeping protocol.
//
// The pool is a policy object owned by the scenario (bench, test, explore
// phase) — KiteSystem itself stays pool-free, so single-domain topologies pay
// nothing.
#ifndef SRC_CORE_POOL_H_
#define SRC_CORE_POOL_H_

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "src/hv/grant_table.h"
#include "src/hv/xenbus.h"
#include "src/net/tcp.h"

namespace kite {

class KiteSystem;
class DriverDomain;
class NetworkDomain;
class StorageDomain;
class GuestVm;

class DomainPool {
 public:
  struct ShardInfo {
    DomId dom = 0;
    bool open = true;
    int load = 0;  // Guest devices currently toolstack-linked to this shard.
  };

  explicit DomainPool(KiteSystem* sys);

  DomainPool(const DomainPool&) = delete;
  DomainPool& operator=(const DomainPool&) = delete;

  // --- Membership. Registration order is placement order. ---
  // A network domain serves VIFs, a storage domain VBDs.
  void AddShard(DriverDomain* dd);
  void RemoveShard(DomId dom);
  // Closed shards host but don't accept new placements.
  void SetShardOpen(DomId dom, bool open);
  bool IsShardOpen(DomId dom) const;
  bool HasShard(DomId dom) const;
  // The device kind a member shard serves; nullopt for non-members.
  std::optional<DeviceKind> KindOf(DomId dom) const;
  // A restart replaces the domain (new id) but not the shard: the successor
  // inherits the slot's position, open flag and pins.
  void ReplaceShard(DomId old_dom, DomId new_dom);

  // --- Placement. ---
  // Deterministic hash over the open shards of `kind`, unless the guest's
  // device is pinned. Nullopt when no such shard exists.
  std::optional<DomId> PickShard(DomId guest, DeviceKind kind) const;
  // Pins override the hash (and win even if the pinned shard is closed —
  // an explicit pin is an operator decision).
  void Pin(DomId guest, DeviceKind kind, DomId dom) { pins_[{guest, kind}] = dom; }
  void Unpin(DomId guest, DeviceKind kind) { pins_.erase({guest, kind}); }

  // Convenience: pick a shard and attach through the toolstack. Returns the
  // chosen shard (nullptr if none open — nothing attached).
  NetworkDomain* AttachVif(GuestVm* guest, Ipv4Addr ip);
  StorageDomain* AttachVbd(GuestVm* guest);

  // --- Load and introspection. ---
  // Guest `kind` devices toolstack-linked to `dom`.
  int Load(DomId dom, DeviceKind kind) const;
  // Open shard of `kind` with the fewest linked devices (ties: pool order);
  // `exclude` skips the shard being drained. Nullopt when no candidate
  // exists.
  std::optional<DomId> LeastLoadedShard(DeviceKind kind, DomId exclude = -1) const;
  // The shards of `kind` in pool order, with live load counts. Also
  // refreshes every shard's gauges.
  std::vector<ShardInfo> Shards(DeviceKind kind) const;

 private:
  struct Shard {
    DomId dom = 0;
    DeviceKind kind = DeviceKind::kVif;
    bool open = true;
  };

  static size_t HashSlot(DomId guest, size_t open_count);
  const Shard* Find(DomId dom) const;
  void PublishGauges() const;

  KiteSystem* sys_;
  std::vector<Shard> shards_;
  std::map<std::pair<DomId, DeviceKind>, DomId> pins_;  // (guest, kind) -> shard
};

}  // namespace kite

#endif  // SRC_CORE_POOL_H_
