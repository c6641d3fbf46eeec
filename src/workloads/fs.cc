#include "src/workloads/fs.h"

#include <algorithm>

#include "src/base/log.h"
#include "src/base/strings.h"

namespace kite {
namespace {

constexpr int64_t kMetadataRegion = 16 * 1024 * 1024;  // Journal area.
constexpr int64_t kMetadataBlock = 4096;

int64_t RoundToSector(int64_t v) {
  return (v + static_cast<int64_t>(kSectorSize) - 1) / kSectorSize * kSectorSize;
}

}  // namespace

SimpleFs::SimpleFs(Blkfront* dev) : dev_(dev) {
  KITE_CHECK(dev->capacity_bytes() > kMetadataRegion) << "device too small";
  free_list_.push_back({kMetadataRegion, dev->capacity_bytes() - kMetadataRegion});
}

int64_t SimpleFs::free_bytes() const {
  int64_t total = 0;
  for (const Extent& e : free_list_) {
    total += e.length;
  }
  return total;
}

bool SimpleFs::Allocate(int64_t bytes, std::vector<Extent>* out) {
  bytes = RoundToSector(bytes);
  int64_t need = bytes;
  std::vector<Extent> taken;
  for (Extent& e : free_list_) {
    if (need == 0) {
      break;
    }
    const int64_t take = std::min(e.length, need);
    taken.push_back({e.offset, take});
    e.offset += take;
    e.length -= take;
    need -= take;
  }
  if (need > 0) {
    // Roll back.
    for (const Extent& t : taken) {
      free_list_.push_back(t);
    }
    return false;
  }
  // Drop exhausted free extents.
  free_list_.erase(std::remove_if(free_list_.begin(), free_list_.end(),
                                  [](const Extent& e) { return e.length == 0; }),
                   free_list_.end());
  out->insert(out->end(), taken.begin(), taken.end());
  return true;
}

void SimpleFs::Free(const std::vector<Extent>& extents) {
  for (const Extent& e : extents) {
    if (e.length > 0) {
      free_list_.push_back(e);
    }
  }
}

bool SimpleFs::Create(const std::string& path, int64_t size) {
  if (files_.count(path) != 0) {
    return false;
  }
  File file;
  file.size = size;
  if (size > 0 && !Allocate(size, &file.extents)) {
    return false;
  }
  files_[path] = std::move(file);
  MetadataWrite(nullptr);
  return true;
}

bool SimpleFs::Exists(const std::string& path) const { return files_.count(path) != 0; }

int64_t SimpleFs::FileSize(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? -1 : it->second.size;
}

bool SimpleFs::Delete(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return false;
  }
  Free(it->second.extents);
  files_.erase(it);
  MetadataWrite(nullptr);
  return true;
}

bool SimpleFs::Stat(const std::string& path) { return files_.count(path) != 0; }

std::vector<SimpleFs::Extent> SimpleFs::Resolve(const File& file, int64_t offset,
                                                int64_t length) const {
  std::vector<Extent> out;
  int64_t pos = 0;
  for (const Extent& e : file.extents) {
    const int64_t ext_end = pos + e.length;
    const int64_t want_start = std::max(pos, offset);
    const int64_t want_end = std::min(ext_end, offset + length);
    if (want_start < want_end) {
      out.push_back({e.offset + (want_start - pos), want_end - want_start});
    }
    pos = ext_end;
    if (pos >= offset + length) {
      break;
    }
  }
  return out;
}

void SimpleFs::MetadataWrite(DoneFn done) {
  if (!journal_enabled_) {
    if (done) {
      done(true);
    }
    return;
  }
  // One small journal write into the rotating metadata slot.
  ++metadata_writes_;
  const int64_t slot = kMetadataBlock * (metadata_cursor_++ % (kMetadataRegion / kMetadataBlock));
  dev_->Write(slot, Buffer(kMetadataBlock, 0),
              [done = std::move(done)](bool ok) {
                if (done) {
                  done(ok);
                }
              });
}

void SimpleFs::IssueIo(const std::vector<Extent>& ranges, bool is_read, DoneFn done) {
  if (ranges.empty()) {
    if (done) {
      done(true);
    }
    return;
  }
  auto remaining = std::make_shared<int>(static_cast<int>(ranges.size()));
  auto all_ok = std::make_shared<bool>(true);
  auto cb = [remaining, all_ok, done = std::move(done)](bool ok) {
    if (!ok) {
      *all_ok = false;
    }
    if (--*remaining == 0 && done) {
      done(*all_ok);
    }
  };
  for (const Extent& r : ranges) {
    const int64_t len = RoundToSector(r.length);
    if (is_read) {
      dev_->Read(r.offset, static_cast<size_t>(len), nullptr, cb);
    } else {
      dev_->Write(r.offset, Buffer(static_cast<size_t>(len), 0), cb);
    }
  }
}

void SimpleFs::Read(const std::string& path, int64_t offset, size_t length, DoneFn done) {
  auto it = files_.find(path);
  if (it == files_.end() || offset >= it->second.size) {
    if (done) {
      done(false);
    }
    return;
  }
  const int64_t len =
      std::min<int64_t>(static_cast<int64_t>(length), it->second.size - offset);
  IssueIo(Resolve(it->second, offset, len), /*is_read=*/true, std::move(done));
}

void SimpleFs::Write(const std::string& path, int64_t offset, size_t length, DoneFn done) {
  auto it = files_.find(path);
  if (it == files_.end() || offset + static_cast<int64_t>(length) > it->second.size) {
    if (done) {
      done(false);
    }
    return;
  }
  IssueIo(Resolve(it->second, offset, static_cast<int64_t>(length)), /*is_read=*/false,
          std::move(done));
}

void SimpleFs::Append(const std::string& path, size_t length, DoneFn done) {
  auto it = files_.find(path);
  if (it == files_.end()) {
    if (done) {
      done(false);
    }
    return;
  }
  File& file = it->second;
  // Grow if the tail sector can't hold the append.
  const int64_t allocated = [&] {
    int64_t total = 0;
    for (const Extent& e : file.extents) {
      total += e.length;
    }
    return total;
  }();
  const int64_t new_size = file.size + static_cast<int64_t>(length);
  if (new_size > allocated && !Allocate(new_size - allocated, &file.extents)) {
    if (done) {
      done(false);
    }
    return;
  }
  const int64_t offset = file.size;
  file.size = new_size;
  // Append = data write + metadata (size) update.
  auto remaining = std::make_shared<int>(2);
  auto all_ok = std::make_shared<bool>(true);
  auto cb = [remaining, all_ok, done = std::move(done)](bool ok) {
    if (!ok) {
      *all_ok = false;
    }
    if (--*remaining == 0 && done) {
      done(*all_ok);
    }
  };
  IssueIo(Resolve(file, offset, static_cast<int64_t>(length)), /*is_read=*/false, cb);
  MetadataWrite(cb);
}

void SimpleFs::Fsync(DoneFn done) {
  dev_->Flush([done = std::move(done)](bool ok) {
    if (done) {
      done(ok);
    }
  });
}

bool SimpleFs::CreateMany(const std::string& prefix, int count, int64_t file_size) {
  const bool was_enabled = journal_enabled_;
  journal_enabled_ = false;
  bool ok = true;
  for (int i = 0; i < count; ++i) {
    const std::string name = StrFormat("%s%06d", prefix.c_str(), i);
    if (Exists(name)) {
      continue;  // Idempotent population (re-used file sets).
    }
    if (!Create(name, file_size)) {
      ok = false;
      break;
    }
  }
  journal_enabled_ = was_enabled;
  return ok;
}

}  // namespace kite
