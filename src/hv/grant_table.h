// Grant tables: Xen's inter-domain shared-memory mechanism.
//
// A domain grants a peer access to one of its pages and hands the peer the
// grant reference (gref) out of band (via xenstore or a ring slot). The peer
// then either maps the page into its own address space (map/unmap — costly,
// which is why Kite's blkback keeps *persistent* mappings) or asks the
// hypervisor to copy bytes (grant copy — what modern netfront/netback use).
#ifndef SRC_HV_GRANT_TABLE_H_
#define SRC_HV_GRANT_TABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "src/hv/page.h"

namespace kite {

using DomId = int32_t;
using GrantRef = uint32_t;

inline constexpr GrantRef kInvalidGrantRef = 0xffffffffu;

// Per-domain table of grant entries. All cross-domain operations (map, copy)
// are mediated by the Hypervisor, which performs permission checks and cost
// accounting; the table itself only tracks entries.
class GrantTable {
 public:
  explicit GrantTable(DomId owner) : owner_(owner) {}
  ~GrantTable() { *alive_ = false; }
  GrantTable(const GrantTable&) = delete;
  GrantTable& operator=(const GrantTable&) = delete;

  // Grants `peer` access to `page`. Returns the new grant reference.
  GrantRef GrantAccess(DomId peer, PageRef page, bool readonly);

  // Revokes a grant. Fails (returns false) while the peer holds a mapping —
  // the Xen behaviour that makes unmap ordering a real protocol concern.
  bool EndAccess(GrantRef ref);

  // Accessors used by the hypervisor during map/copy.
  struct Entry {
    PageRef page;
    DomId peer = -1;
    bool readonly = false;
    bool in_use = false;
    int active_maps = 0;
  };
  const Entry* Lookup(GrantRef ref) const;

  // Counts one more mapping of the granted entry `ref` by its peer (the
  // GrantMap hypercall). Every change to active_maps goes through this,
  // DropMapping or RevokeMappingsFor, so the per-peer counts stay exact.
  void AddMapping(GrantRef ref);
  // Releases one mapping of `ref`; false when none is held (a stale handle
  // whose mapping was force-dropped).
  bool DropMapping(GrantRef ref);

  // Force-drops every active mapping held by `peer` (domain destruction: the
  // mapper is gone, so its mappings cannot be released gracefully). Entries
  // stay granted — the owner revokes them with EndAccess, which now succeeds.
  // Returns the number of mappings dropped; a peer that maps nothing here
  // costs one lookup. A stale MappedGrant unmapped later is harmless:
  // DropMapping only decrements while active_maps > 0.
  int RevokeMappingsFor(DomId peer);

  DomId owner() const { return owner_; }
  int active_entry_count() const;
  int total_maps_outstanding() const;

  // Liveness token captured by MappedGrant handles: when the owning domain
  // (and with it this table) is destroyed while a backend still holds a
  // mapping, the handle's Unmap must not touch the freed table.
  std::shared_ptr<const bool> alive_token() const { return alive_; }

 private:
  Entry* MutableEntry(GrantRef ref);

  DomId owner_;
  std::vector<Entry> entries_;
  std::vector<GrantRef> free_list_;
  // Active mappings per mapping domain; a domain holding none has no key.
  std::map<DomId, int> maps_by_peer_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// RAII handle for a mapped grant held by a peer domain. Move-only. The
// optional unmap hook lets the hypervisor charge the unmap hypercall cost to
// the mapping domain — the cost Kite's persistent grants exist to avoid.
class MappedGrant {
 public:
  MappedGrant() = default;
  MappedGrant(GrantTable* table, GrantRef ref, PageRef page,
              std::function<void()> on_unmap = nullptr)
      : table_(table),
        table_alive_(table != nullptr ? table->alive_token() : nullptr),
        ref_(ref),
        page_(std::move(page)),
        on_unmap_(std::move(on_unmap)) {}
  ~MappedGrant() { Unmap(); }

  MappedGrant(MappedGrant&& other) noexcept { *this = std::move(other); }
  MappedGrant& operator=(MappedGrant&& other) noexcept;
  MappedGrant(const MappedGrant&) = delete;
  MappedGrant& operator=(const MappedGrant&) = delete;

  bool valid() const { return page_ != nullptr; }
  Page* page() const { return page_.get(); }
  GrantRef ref() const { return ref_; }

  // Explicitly releases the mapping (also done by the destructor).
  void Unmap();

 private:
  GrantTable* table_ = nullptr;
  std::shared_ptr<const bool> table_alive_;
  GrantRef ref_ = kInvalidGrantRef;
  PageRef page_;
  std::function<void()> on_unmap_;
};

}  // namespace kite

#endif  // SRC_HV_GRANT_TABLE_H_
