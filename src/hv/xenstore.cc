#include "src/hv/xenstore.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {
namespace {

// Pops the next component of `*rest` into `*part`, skipping empty ones as
// xenstore paths do ("/a//b/" yields "a", then "b"); false when none is left.
bool NextComponent(std::string_view* rest, std::string_view* part) {
  const size_t start = rest->find_first_not_of('/');
  if (start == std::string_view::npos) {
    return false;
  }
  const size_t end = std::min(rest->find('/', start), rest->size());
  *part = rest->substr(start, end - start);
  rest->remove_prefix(end);
  return true;
}

// A watch prefix normalized as PathIsUnder does: "" and "/" match every path
// (key ""), and one trailing '/' is dropped. No other prefix yields "".
std::string_view WatchKey(std::string_view prefix) {
  if (prefix.empty() || prefix == "/") {
    return {};
  }
  if (prefix.back() == '/') {
    prefix.remove_suffix(1);
  }
  return prefix;
}

}  // namespace

const XenStore::Node* XenStore::FindNode(std::string_view path) const {
  ++node_lookups_;
  const Node* node = &root_;
  std::string_view part;
  while (NextComponent(&path, &part)) {
    auto it = node->children.find(part);
    if (it == node->children.end()) {
      return nullptr;
    }
    node = &it->second;
  }
  return node;
}

XenStore::Node* XenStore::FindNode(std::string_view path) {
  return const_cast<Node*>(static_cast<const XenStore*>(this)->FindNode(path));
}

XenStore::Node* XenStore::FindParent(std::string_view path, Children::iterator* entry) {
  Node* parent = nullptr;
  Node* node = &root_;
  std::string_view part;
  while (NextComponent(&path, &part)) {
    auto it = node->children.find(part);
    if (it == node->children.end()) {
      return nullptr;
    }
    parent = node;
    node = &it->second;
    *entry = it;
  }
  return parent;
}

bool XenStore::CanRead(DomId caller, const Node& node) const {
  return caller == kDom0 || caller == node.owner || node.permitted.count(caller) != 0;
}

bool XenStore::CanWrite(DomId caller, const Node& node) const {
  return caller == kDom0 || caller == node.owner || node.permitted.count(caller) != 0;
}

bool XenStore::Write(DomId caller, const std::string& path, const std::string& value) {
  Node* node = &root_;
  std::string_view rest = path;
  std::string_view part;
  while (NextComponent(&rest, &part)) {
    auto it = node->children.find(part);
    if (it == node->children.end()) {
      if (!CanWrite(caller, *node)) {
        return false;
      }
      Node child;
      child.owner = caller;
      // Inherit explicit permissions so a frontend can populate its own
      // subtree after dom0 grants it the parent directory.
      child.permitted = node->permitted;
      it = node->children.emplace(part, std::move(child)).first;
    }
    node = &it->second;
  }
  if (!CanWrite(caller, *node)) {
    return false;
  }
  node->value = value;
  FireWatches(path);
  return true;
}

std::optional<std::string> XenStore::Read(DomId caller, const std::string& path) const {
  const Node* node = FindNode(path);
  if (node == nullptr || !CanRead(caller, *node)) {
    return std::nullopt;
  }
  return node->value;
}

std::optional<std::vector<std::string>> XenStore::List(DomId caller,
                                                       const std::string& path) const {
  const Node* node = FindNode(path);
  if (node == nullptr || !CanRead(caller, *node)) {
    return std::nullopt;
  }
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) {
    names.push_back(name);
  }
  return names;
}

bool XenStore::Remove(DomId caller, const std::string& path) {
  Children::iterator it;
  Node* parent = FindParent(path, &it);  // Null for the root: never removed.
  if (parent == nullptr || !CanWrite(caller, it->second)) {
    return false;
  }
  parent->children.erase(it);
  FireWatches(path);
  return true;
}

void XenStore::CollectPaths(const Node& node, const std::string& base,
                            std::vector<std::string>* out) {
  out->push_back(base);
  for (const auto& [name, child] : node.children) {
    CollectPaths(child, base + "/" + name, out);
  }
}

bool XenStore::RemoveSubtree(DomId caller, const std::string& path) {
  Children::iterator it;
  Node* parent = FindParent(path, &it);  // Null for the root: never removed.
  if (parent == nullptr || !CanWrite(caller, it->second)) {
    return false;
  }
  std::vector<std::string> removed;
  CollectPaths(it->second, path, &removed);
  parent->children.erase(it);
  // Deepest-first (reverse preorder) so leaf watchers hear before directory
  // watchers, matching the order a sequence of single removes would produce.
  for (auto rit = removed.rbegin(); rit != removed.rend(); ++rit) {
    FireWatches(*rit);
  }
  return true;
}

bool XenStore::Exists(const std::string& path) const { return FindNode(path) != nullptr; }

bool XenStore::SetPermission(DomId caller, const std::string& path, DomId peer) {
  Node* node = FindNode(path);
  if (node == nullptr || (caller != kDom0 && caller != node->owner)) {
    return false;
  }
  node->permitted.insert(peer);
  // Also grant recursively to existing children (simplification of Xen's
  // per-node perms: drivers set perms on the device directory root).
  std::vector<Node*> stack{node};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    n->permitted.insert(peer);
    for (auto& [name, child] : n->children) {
      stack.push_back(&child);
    }
  }
  return true;
}

bool XenStore::WriteInt(DomId caller, const std::string& path, int64_t value) {
  return Write(caller, path, StrFormat("%lld", static_cast<long long>(value)));
}

std::optional<int64_t> XenStore::ReadInt(DomId caller, const std::string& path) const {
  auto v = Read(caller, path);
  if (!v.has_value()) {
    return std::nullopt;
  }
  int64_t parsed = ParseDecimal(*v);
  if (parsed < 0) {
    return std::nullopt;
  }
  return parsed;
}

WatchId XenStore::AddWatch(DomId caller, const std::string& prefix, const std::string& token,
                           WatchFn fn) {
  KITE_CHECK(fn != nullptr);
  WatchId id = next_watch_id_++;
  auto watch = std::make_shared<const Watch>(
      Watch{caller, std::string(WatchKey(prefix)), token, std::move(fn)});
  by_key_[watch->key].push_back(id);
  watches_.emplace(id, std::move(watch));
  // Xen fires a watch once on registration so the watcher can discover
  // pre-existing state.
  PostWatchEvent(id, prefix);
  return id;
}

void XenStore::PostWatchEvent(WatchId id, std::string path) {
  // The callback is resolved at *fire* time: a watch removed while the event
  // was in flight (e.g. its owner was destroyed) silently expires.
  executor_->PostAfter(kOpLatency, KITE_POST_SITE("xenstore/watch-fire"),
                       [this, id, path = std::move(path)] {
    auto it = watches_.find(id);
    if (it == watches_.end()) {
      return;
    }
    // The copy keeps the closure and token alive if the callback removes
    // this watch or grows the table.
    const std::shared_ptr<const Watch> watch = it->second;
    watch->fn(path, watch->token);
  });
}

void XenStore::Unindex(WatchId id, const std::string& key) {
  auto bucket = by_key_.find(key);
  std::vector<WatchId>& ids = bucket->second;
  ids.erase(std::find(ids.begin(), ids.end(), id));
  if (ids.empty()) {
    by_key_.erase(bucket);
  }
}

void XenStore::RemoveWatch(WatchId id) {
  auto it = watches_.find(id);
  if (it == watches_.end()) {
    return;
  }
  Unindex(id, it->second->key);
  watches_.erase(it);
}

int XenStore::RemoveWatchesOwnedBy(DomId owner) {
  int removed = 0;
  for (auto it = watches_.begin(); it != watches_.end();) {
    if (it->second->owner == owner) {
      Unindex(it->first, it->second->key);
      it = watches_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

int XenStore::watch_count(DomId owner) const {
  return static_cast<int>(std::count_if(watches_.begin(), watches_.end(), [owner](const auto& w) {
    return w.second->owner == owner;
  }));
}

void XenStore::FireWatches(std::string_view path) {
  // PathIsUnder(path, prefix) holds exactly when the prefix's key is "", the
  // path itself, or the path cut just before one of its '/' (past the first
  // byte: cutting there yields "", already probed).
  std::vector<WatchId> hits;
  auto probe = [&](std::string_view key) {
    if (auto it = by_key_.find(key); it != by_key_.end()) {
      hits.insert(hits.end(), it->second.begin(), it->second.end());
    }
  };
  probe({});
  for (size_t i = 1; i < path.size(); ++i) {
    if (path[i] == '/') {
      probe(path.substr(0, i));
    }
  }
  if (!path.empty()) {
    probe(path);
  }
  // Id order is registration order, the order a scan of every watch fired in.
  std::sort(hits.begin(), hits.end());
  for (WatchId id : hits) {
    PostWatchEvent(id, std::string(path));
  }
}

}  // namespace kite
