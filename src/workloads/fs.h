// SimpleFs: a minimal extent-based file system over Blkfront.
//
// Stands in for the guest's ext4 in the storage macrobenchmarks. Files are
// allocated from contiguous extents (with a free list, so delete/create
// cycles fragment realistically); directory metadata is in memory, with
// metadata write-through for create/delete/append (one small block I/O),
// matching the paper's cache-flushed, I/O-bound configurations.
#ifndef SRC_WORKLOADS_FS_H_
#define SRC_WORKLOADS_FS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/blkdrv/blkfront.h"

namespace kite {

class SimpleFs {
 public:
  using DoneFn = std::function<void(bool ok)>;

  // block_offset reserves a metadata region at the start of the device.
  explicit SimpleFs(Blkfront* dev);

  Blkfront* device() const { return dev_; }
  int64_t free_bytes() const;

  // --- Namespace ops (synchronous metadata, async journal write). ---
  // Creates a file and preallocates `size` bytes (0 allowed). Returns false
  // if it exists or space is exhausted.
  bool Create(const std::string& path, int64_t size);
  bool Exists(const std::string& path) const;
  int64_t FileSize(const std::string& path) const;
  bool Delete(const std::string& path);
  // stat(): pure metadata, costs a little CPU but no I/O.
  bool Stat(const std::string& path);

  // --- Data ops (async, sector-rounded internally). ---
  void Read(const std::string& path, int64_t offset, size_t length, DoneFn done);
  void Write(const std::string& path, int64_t offset, size_t length, DoneFn done);
  // Appends grow the file (allocating new extents as needed).
  void Append(const std::string& path, size_t length, DoneFn done);
  void Fsync(DoneFn done);

  // Populates `count` files of `file_size` bytes named prefixNNN. Journaling
  // is suspended during population (the paper populates datasets before
  // measuring).
  bool CreateMany(const std::string& prefix, int count, int64_t file_size);

  // Disables/enables the metadata journal write on namespace changes
  // (population fast path).
  void SetJournalEnabled(bool enabled) { journal_enabled_ = enabled; }

  uint64_t metadata_writes() const { return metadata_writes_; }

 private:
  struct Extent {
    int64_t offset;
    int64_t length;
  };
  struct File {
    std::vector<Extent> extents;
    int64_t size = 0;
  };

  // Allocates extents covering `bytes`; returns false when out of space.
  bool Allocate(int64_t bytes, std::vector<Extent>* out);
  void Free(const std::vector<Extent>& extents);
  // Maps a file byte range onto device ranges.
  std::vector<Extent> Resolve(const File& file, int64_t offset, int64_t length) const;
  void MetadataWrite(DoneFn done);
  // Issues I/O over possibly multiple extents, aggregating completion.
  void IssueIo(const std::vector<Extent>& ranges, bool is_read, DoneFn done);

  Blkfront* dev_;
  bool journal_enabled_ = true;
  std::map<std::string, File> files_;
  std::vector<Extent> free_list_;
  int64_t metadata_cursor_ = 0;  // Rotating journal slot in the metadata area.

  uint64_t metadata_writes_ = 0;
};

}  // namespace kite

#endif  // SRC_WORKLOADS_FS_H_
