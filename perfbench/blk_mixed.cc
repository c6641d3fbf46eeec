// blk_mixed: a closed loop of 8 guests, each at queue depth 8, against one
// storage domain. 70% reads and 30% writes of 4-64 KB at random aligned
// offsets in a 16 MB region per guest, with disk content stored. Every 4 KB
// block written carries an (lba, version) stamp that reads check. Exercises
// blkfront/blkback (persistent grants, indirect segments above 11 segments),
// grant maps and the disk model; every network layer is idle.
#include <cstring>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

using namespace kite;

constexpr int kGuests = 8;
constexpr int kDepth = 8;
constexpr int64_t kBlock = 4096;
constexpr int64_t kRegionBytes = 16LL << 20;
constexpr int kRegionBlocks = static_cast<int>(kRegionBytes / kBlock);
constexpr int kMaxBlocksPerOp = 16;  // 64 KB.
constexpr double kReadShare = 0.7;
constexpr uint64_t kWarmupOps = 2000;
constexpr uint64_t kWindowOps = 40000;

class BlkMixed : public Workload {
 public:
  using Workload::Workload;

  void Setup() override {
    KiteSystem::Params params = BaseParams();
    params.disk_store_data = true;
    sys_ = std::make_unique<KiteSystem>(params);
    StorageDomain* stordom = sys_->CreateStorageDomain();
    std::vector<GuestVm*> guests = BringUpFleet(kGuests, nullptr, stordom, 10);
    guests_.resize(kGuests);
    for (int g = 0; g < kGuests; ++g) {
      guests_[g].index = g;
      guests_[g].front = guests[g]->blkfront();
      guests_[g].base = g * kRegionBytes;
      guests_[g].versions.assign(kRegionBlocks, 0);
      guests_[g].slots.resize(kDepth);
    }
    RunPhase(kWarmupOps);
  }

  void RunWindow() override {
    BeginWindow();
    RunPhase(kWindowOps);
    EndWindow();
  }

 private:
  struct Slot {
    bool busy = false;
    bool is_read = false;
    int first = 0;  // First block within the region.
    int count = 0;
    uint64_t version = 0;  // Stamp of a write.
    int64_t started_ns = 0;
    Buffer data;  // Read destination.
  };
  struct Guest {
    int index = 0;
    Blkfront* front = nullptr;
    int64_t base = 0;
    std::vector<uint64_t> versions;  // Acknowledged stamp per block; 0 = never written.
    std::vector<Slot> slots;
    uint64_t next_version = 1;
  };

  void RunPhase(uint64_t ops) {
    ops_left_ = ops;
    completed_ = 0;
    for (Guest& g : guests_) {
      for (int s = 0; s < kDepth; ++s) {
        StartOp(&g, s);
      }
    }
    sys_->WaitUntil([&] { return completed_ == ops; }, Seconds(20));
    result_.attempted += ops;
    result_.failed += ops - completed_;
  }

  bool Overlaps(const Guest& g, int first, int count) const {
    for (const Slot& s : g.slots) {
      if (s.busy && first < s.first + s.count && s.first < first + count) {
        return true;
      }
    }
    return false;
  }

  // The 4 KB image of block `lba` at `version`: (lba, version, guest) then a
  // fill word derived from all three.
  static void StampBlock(uint8_t* block, uint64_t lba, uint64_t version, uint64_t guest) {
    const uint64_t head[3] = {lba, version, guest};
    std::memcpy(block, head, sizeof(head));
    const uint64_t fill = Mix64(lba ^ (version << 24) ^ (guest << 56));
    for (size_t off = sizeof(head); off < kBlock; off += 8) {
      std::memcpy(block + off, &fill, 8);
    }
  }

  static bool BlockMatches(const uint8_t* block, uint64_t lba, uint64_t version,
                           uint64_t guest) {
    if (version == 0) {
      for (int64_t i = 0; i < kBlock; ++i) {
        if (block[i] != 0) {
          return false;
        }
      }
      return true;
    }
    uint8_t expect[kBlock];
    StampBlock(expect, lba, version, guest);
    return std::memcmp(block, expect, kBlock) == 0;
  }

  void StartOp(Guest* g, int slot_index) {
    if (ops_left_ == 0) {
      return;
    }
    --ops_left_;
    Slot& s = g->slots[slot_index];
    s.is_read = rng_.Chance(kReadShare);
    s.count = 1 + static_cast<int>(rng_.Below(kMaxBlocksPerOp));
    do {
      s.first = static_cast<int>(rng_.Below(kRegionBlocks - s.count + 1));
    } while (Overlaps(*g, s.first, s.count));
    s.busy = true;
    s.started_ns = sys_->Now().ns();
    const int64_t offset = g->base + s.first * kBlock;
    auto done = [this, g, slot_index](bool ok) { Complete(g, slot_index, ok); };
    if (s.is_read) {
      config_.spans->Time("blkdrv.submit_call", sys_.get(), [&] {
        g->front->Read(offset, static_cast<size_t>(s.count * kBlock), &s.data, done);
      });
    } else {
      s.version = g->next_version++;
      Buffer data(static_cast<size_t>(s.count * kBlock));
      for (int b = 0; b < s.count; ++b) {
        StampBlock(data.data() + b * kBlock, static_cast<uint64_t>(s.first + b), s.version,
                   static_cast<uint64_t>(g->index));
      }
      config_.spans->Time("blkdrv.submit_call", sys_.get(), [&] {
        g->front->Write(offset, std::move(data), done);
      });
    }
  }

  void Complete(Guest* g, int slot_index, bool ok) {
    Slot& s = g->slots[slot_index];
    s.busy = false;
    ++completed_;
    if (!ok) {
      ++result_.failed;
    } else if (s.is_read) {
      bool match = s.data.size() == static_cast<size_t>(s.count * kBlock);
      for (int b = 0; match && b < s.count; ++b) {
        match = BlockMatches(s.data.data() + b * kBlock, static_cast<uint64_t>(s.first + b),
                             g->versions[s.first + b], static_cast<uint64_t>(g->index));
      }
      if (!match) {
        Mismatch("blk read-back of guest " + std::to_string(g->index) + " block " +
                 std::to_string(s.first) + " does not carry its last acknowledged stamp");
        ok = false;
      }
    } else {
      for (int b = 0; b < s.count; ++b) {
        g->versions[s.first + b] = s.version;
      }
    }
    if (ok) {
      const int64_t now = sys_->Now().ns();
      result_.latency_ns.push_back(now - s.started_ns);
      result_.sim_end_ns = std::max(result_.sim_end_ns, now);
    }
    StartOp(g, slot_index);
  }

  SeededRng rng_{config_.seed};
  std::vector<Guest> guests_;
  uint64_t ops_left_ = 0;
  uint64_t completed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeBlkMixed(const WorkloadConfig& config) {
  return std::make_unique<BlkMixed>(config);
}

}  // namespace perfbench
