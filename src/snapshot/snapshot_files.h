// Snapshot file formats.
//
// A Firecracker snapshot consists of a VM state file (vCPU + device state) and a
// memory file that is a full copy of guest physical memory (paper section 2.4).
// On top of those, REAP adds a compact working set file (faulted pages + contents,
// in access order), and FaaSnap adds a loading set file (non-zero working-set
// regions, sorted by (group, address), read sequentially by the loader —
// sections 4.6-4.7).
//
// In the simulation, file *contents* reduce to the one property paging depends on:
// whether each page is zero. The SnapshotStore assigns FileIds and tracks sizes so
// the FaultEngine can bound readahead and the metrics can report fetch sizes.

#ifndef FAASNAP_SRC_SNAPSHOT_SNAPSHOT_FILES_H_
#define FAASNAP_SRC_SNAPSHOT_SNAPSHOT_FILES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/file_id.h"
#include "src/common/page_range.h"
#include "src/common/status.h"

namespace faasnap {

class FaultInjector;

// Registry of files living on the snapshot storage device. Owns FileId assignment;
// ids are never reused within a store.
//
// Every file carries a metadata checksum stamped at registration (mirroring the
// FNV-1a trailer of the on-disk manifest formats in snapshot/serialization).
// Validate/Open are the Status-returning entry points restore paths use before
// trusting a file; size_pages/name remain CHECK-on-bad-id accessors for callers
// that hold an id they registered themselves.
class SnapshotStore {
 public:
  FileId Register(std::string name, PageCount size);

  // Grows a registered file (loading-set files are written incrementally).
  // Re-stamps the checksum (an honest writer updates the trailer with the data).
  void Resize(FileId id, PageCount size);

  PageCount size_pages(FileId id) const;
  const std::string& name(FileId id) const;
  bool Contains(FileId id) const;

  // Integrity check: NOT_FOUND for an unknown id, IO_ERROR ("checksum
  // mismatch") for a file whose stored checksum no longer matches its metadata
  // (truncation, torn write, injected corruption). OK otherwise.
  Status Validate(FileId id) const;

  // By-name lookup plus Validate: the Status-returning alternative to handing
  // out sizes for unvalidated files.
  Result<FileId> Open(const std::string& name) const;

  // Test hook: makes `id` fail Validate, as if the file were truncated.
  void CorruptForTesting(FileId id);

  // Attaches deterministic fault injection: files registered from now on may be
  // marked corrupt (decided per file id by the injector). Null detaches.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Adapter for FaultEngine's file_size_pages hook.
  std::function<PageCount(FileId)> SizeFn() const;

  // Takes `source`'s registered files (names, sizes, checksums, corruption),
  // so file ids resolve alike in both stores. The fault injector stays this
  // store's own.
  void CopyEntriesFrom(const SnapshotStore& source) { entries_ = source.entries_; }

 private:
  struct Entry {
    std::string name;
    PageCount size;
    uint64_t checksum = 0;
    bool corrupt = false;  // injected or test-forced truncation/corruption
  };
  const Entry& Get(FileId id) const;
  static uint64_t ChecksumOf(const Entry& entry);

  std::vector<Entry> entries_;  // index = id - 1
  FaultInjector* injector_ = nullptr;
};

// The guest memory file: full copy of guest physical memory, with the zero/non-zero
// page map the per-region mapping technique depends on (section 4.5).
struct MemoryFile {
  FileId id = kInvalidFileId;
  PageCount total_pages;
  PageRangeSet nonzero;

  bool IsZero(PageIndex page) const { return !nonzero.Contains(page); }
  // Consecutive zero pages merged into zero regions (the post-invocation scan of
  // section 4.5). Equivalent to the complement of `nonzero`.
  PageRangeSet ZeroRegions() const { return nonzero.ComplementWithin(total_pages); }
};

// REAP's working set file: the faulted guest pages of the record invocation, in
// fault order, stored compactly so the whole set is fetched in one batch read.
struct ReapWorkingSetFile {
  FileId id = kInvalidFileId;
  std::vector<PageIndex> guest_pages;  // record-phase fault order

  PageCount size_pages() const { return PageCount::FromPages(guest_pages.size()); }
};

// Working set groups from the record phase (section 4.3): group g holds the pages
// that became resident in the g-th mincore scan (~1024 pages per group).
struct WorkingSetGroups {
  std::vector<PageRangeSet> groups;

  PageCount total_pages() const;
  // Union of all groups.
  PageRangeSet AllPages() const;
  // Lowest group index containing any page of `range`, or groups.size() if none
  // (the paper assigns a region the lowest group number of any page in it).
  uint32_t LowestGroupFor(const PageRange& range) const;
};

// One region of the loading set file: `guest` pages stored at file page
// `file_start`, prefetched in group order.
struct LoadingRegion {
  PageRange guest;
  uint32_t group = 0;
  PageIndex file_start = 0;

  bool operator==(const LoadingRegion&) const = default;
};

// FaaSnap's loading set file (section 4.7): regions sorted by (group, address);
// region file offsets are contiguous in that order so the loader's sequential scan
// of the file follows approximate access order.
struct LoadingSetFile {
  FileId id = kInvalidFileId;
  std::vector<LoadingRegion> regions;
  PageCount total_pages;

  // All guest pages covered by the loading set.
  PageRangeSet GuestPages() const;
};

// Everything restorable for one function.
struct Snapshot {
  std::string function_name;
  PageCount guest_mem_pages;
  FileId vmstate_id = kInvalidFileId;
  MemoryFile memory;
  // Populated by the respective record paths; absent pieces stay empty/invalid.
  ReapWorkingSetFile reap_ws;
  WorkingSetGroups ws_groups;
  LoadingSetFile loading_set;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_SNAPSHOT_SNAPSHOT_FILES_H_
