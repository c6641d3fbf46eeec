#include "src/hv/grant_table.h"

#include "src/base/log.h"

namespace kite {

GrantRef GrantTable::GrantAccess(DomId peer, PageRef page, bool readonly) {
  KITE_CHECK(page != nullptr);
  GrantRef ref;
  if (!free_list_.empty()) {
    ref = free_list_.back();
    free_list_.pop_back();
  } else {
    ref = static_cast<GrantRef>(entries_.size());
    entries_.emplace_back();
  }
  Entry& e = entries_[ref];
  e.page = std::move(page);
  e.peer = peer;
  e.readonly = readonly;
  e.in_use = true;
  e.active_maps = 0;
  return ref;
}

bool GrantTable::EndAccess(GrantRef ref) {
  Entry* e = MutableEntry(ref);
  if (e == nullptr) {
    return false;
  }
  if (e->active_maps > 0) {
    // Peer still holds a mapping; revocation must wait (matches Xen's
    // gnttab_end_foreign_access semantics for mapped grants).
    return false;
  }
  e->page.reset();
  e->in_use = false;
  e->peer = -1;
  free_list_.push_back(ref);
  return true;
}

const GrantTable::Entry* GrantTable::Lookup(GrantRef ref) const {
  if (ref >= entries_.size() || !entries_[ref].in_use) {
    return nullptr;
  }
  return &entries_[ref];
}

GrantTable::Entry* GrantTable::MutableEntry(GrantRef ref) {
  return const_cast<Entry*>(static_cast<const GrantTable*>(this)->Lookup(ref));
}

void GrantTable::AddMapping(GrantRef ref) {
  Entry* e = MutableEntry(ref);
  KITE_CHECK(e != nullptr) << "mapping an ungranted ref " << ref;
  ++e->active_maps;
  ++maps_by_peer_[e->peer];
}

bool GrantTable::DropMapping(GrantRef ref) {
  Entry* e = MutableEntry(ref);
  if (e == nullptr || e->active_maps == 0) {
    return false;
  }
  --e->active_maps;
  auto it = maps_by_peer_.find(e->peer);
  if (--it->second == 0) {
    maps_by_peer_.erase(it);
  }
  return true;
}

int GrantTable::RevokeMappingsFor(DomId peer) {
  auto it = maps_by_peer_.find(peer);
  if (it == maps_by_peer_.end()) {
    return 0;
  }
  const int dropped = it->second;
  maps_by_peer_.erase(it);
  for (Entry& e : entries_) {
    if (e.in_use && e.peer == peer) {
      e.active_maps = 0;
    }
  }
  return dropped;
}

int GrantTable::active_entry_count() const {
  int n = 0;
  for (const Entry& e : entries_) {
    if (e.in_use) {
      ++n;
    }
  }
  return n;
}

int GrantTable::total_maps_outstanding() const {
  int n = 0;
  for (const auto& [peer, maps] : maps_by_peer_) {
    n += maps;
  }
  return n;
}

MappedGrant& MappedGrant::operator=(MappedGrant&& other) noexcept {
  if (this != &other) {
    Unmap();
    table_ = other.table_;
    table_alive_ = std::move(other.table_alive_);
    ref_ = other.ref_;
    page_ = std::move(other.page_);
    on_unmap_ = std::move(other.on_unmap_);
    other.table_ = nullptr;
    other.table_alive_.reset();
    other.ref_ = kInvalidGrantRef;
    other.page_.reset();
    other.on_unmap_ = nullptr;
  }
  return *this;
}

void MappedGrant::Unmap() {
  if (page_ == nullptr) {
    return;
  }
  // A stale handle whose mapping was already force-dropped (the mapper
  // domain was destroyed) has nothing to unmap: skip the hypercall hook —
  // it charges the mapper's vCPU, which no longer exists. The alive token
  // covers the reverse direction: the *owner* domain died and took the table
  // with it, leaving `table_` dangling.
  const bool was_mapped = table_ != nullptr && table_alive_ != nullptr && *table_alive_ &&
                          table_->DropMapping(ref_);
  if (was_mapped && on_unmap_ != nullptr) {
    on_unmap_();
  }
  on_unmap_ = nullptr;
  page_.reset();
  table_ = nullptr;
  ref_ = kInvalidGrantRef;
}

}  // namespace kite
