// XenStore: the hierarchical key-value database shared between domains,
// maintained by the xenstored daemon in Dom0.
//
// Backend and frontend drivers exchange configuration (ring grant refs,
// event-channel ports, feature flags) through xenstore paths, and register
// *watches* that fire when a path (or any descendant) changes — the mechanism
// Kite's backend-invocation thread (paper §4.1) is built on.
//
// Semantics implemented:
//  - hierarchical nodes, each with a value, an owner domain, and a read ACL;
//  - writes create intermediate nodes; removes are recursive;
//  - watches match a path prefix and fire asynchronously (posted to the
//    executor with a xenstored processing latency), including once
//    immediately upon registration (real Xen behaviour that drivers rely on
//    to discover pre-existing state).
//
// Cost model of the simulator itself: a path is walked one string_view
// component at a time, with no per-component allocation, and a write finds
// its watches through an index keyed by prefix, probing only the path and
// its ancestors instead of testing every watch.
#ifndef SRC_HV_XENSTORE_H_
#define SRC_HV_XENSTORE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/hv/grant_table.h"  // for DomId
#include "src/sim/executor.h"

namespace kite {

class FlightRecorder;

inline constexpr DomId kDom0 = 0;

using WatchId = uint64_t;

// Callback invoked with the changed path and the registration token.
using WatchFn = std::function<void(const std::string& path, const std::string& token)>;

class XenStore {
 public:
  // `recorder` is where XenbusClient records device state switches.
  XenStore(Executor* executor, FlightRecorder* recorder)
      : executor_(executor), recorder_(recorder) {}

  // --- Data operations (caller identity is checked against node ACLs). ---

  // Writes value at path, creating intermediate nodes owned by the caller.
  // Returns false on permission failure.
  bool Write(DomId caller, const std::string& path, const std::string& value);

  std::optional<std::string> Read(DomId caller, const std::string& path) const;

  // Child names of path (not full paths), or nullopt if missing/forbidden.
  std::optional<std::vector<std::string>> List(DomId caller, const std::string& path) const;

  // Recursive removal. Returns false if missing or forbidden. Fires watches
  // only for the removed path itself.
  bool Remove(DomId caller, const std::string& path);

  // Recursive removal that fires watches for *every* removed descendant path,
  // not just the subtree root. Domain teardown uses this so that a frontend
  // watching ".../state" under the dead domain's directory observes the
  // deletion (plain Remove would only notify watchers of the directory root).
  bool RemoveSubtree(DomId caller, const std::string& path);

  bool Exists(const std::string& path) const;

  // Makes a node (and future children created under it) readable/writable by
  // `peer` — models xenstore permissions for the frontend/backend split.
  bool SetPermission(DomId caller, const std::string& path, DomId peer);

  // Convenience typed accessors used throughout the drivers.
  bool WriteInt(DomId caller, const std::string& path, int64_t value);
  std::optional<int64_t> ReadInt(DomId caller, const std::string& path) const;

  // --- Watches. ---

  // Registers a watch on `prefix`. Fires asynchronously once immediately
  // (with the prefix itself) and then on every write/remove at or under the
  // prefix (with the changed path).
  WatchId AddWatch(DomId caller, const std::string& prefix, const std::string& token,
                   WatchFn fn);
  void RemoveWatch(WatchId id);

  // Drops every watch registered by `owner`; returns how many were removed.
  // Called from domain teardown so a destroyed domain's driver callbacks can
  // never fire into freed objects.
  int RemoveWatchesOwnedBy(DomId owner);

  // Latency of one xenstored round trip: the delay before a watch callback
  // runs. Data ops are synchronous in simulation; the Hypervisor wrapper
  // charges them the same cost (HvCosts::xenstore_op).
  static constexpr SimDuration kOpLatency = Micros(15);

  int watch_count() const { return static_cast<int>(watches_.size()); }
  int watch_count(DomId owner) const;
  // Path lookups (FindNode calls) since construction: the store's work
  // count, charged or not, outside the metric registry so that figure
  // tables keep their bytes.
  uint64_t node_lookups() const { return node_lookups_; }

  FlightRecorder* recorder() const { return recorder_; }

 private:
  struct Node;
  // std::less<> looks a string_view component up without a copy.
  using Children = std::map<std::string, Node, std::less<>>;
  struct Node {
    std::string value;
    DomId owner = kDom0;
    std::set<DomId> permitted;  // Domains besides owner/dom0 with access.
    Children children;
  };

  // Out of line on purpose: perfbench counts its calls as xenstore lookups.
  const Node* FindNode(std::string_view path) const;
  Node* FindNode(std::string_view path);
  // The parent of path's node, with the node's entry in it in *entry; null
  // for a missing path or the root (Remove and RemoveSubtree).
  Node* FindParent(std::string_view path, Children::iterator* entry);
  bool CanRead(DomId caller, const Node& node) const;
  bool CanWrite(DomId caller, const Node& node) const;
  void FireWatches(std::string_view path);
  void PostWatchEvent(WatchId id, std::string path);
  void Unindex(WatchId id, const std::string& key);
  static void CollectPaths(const Node& node, const std::string& base,
                           std::vector<std::string>* out);

  struct Watch {
    DomId owner;
    std::string key;  // The prefix, normalized as PathIsUnder does.
    std::string token;
    WatchFn fn;
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const { return std::hash<std::string_view>{}(s); }
  };

  Executor* executor_;
  FlightRecorder* recorder_;
  mutable uint64_t node_lookups_ = 0;
  Node root_;
  // Shared so that a firing callback keeps its closure and token alive
  // while it removes its own watch.
  std::unordered_map<WatchId, std::shared_ptr<const Watch>> watches_;
  // Watch ids by normalized prefix ("" matches every path), each list in
  // id order, which is registration order.
  std::unordered_map<std::string, std::vector<WatchId>, KeyHash, std::equal_to<>> by_key_;
  WatchId next_watch_id_ = 1;
};

}  // namespace kite

#endif  // SRC_HV_XENSTORE_H_
