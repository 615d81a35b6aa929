// NativeRegionMapper: FaaSnap's hierarchical overlapping mmap against the real
// kernel (paper Figure 4 / section 4.8).
//
// A base anonymous reservation covers the whole "guest" space; non-zero memory
// file regions and loading-set-file regions are MAP_FIXED'd over it, later layers
// overriding earlier ones exactly as the Firecracker VMM modification does. The
// mapped area can then be handed to a guest — here, a toucher thread.

#ifndef FAASNAP_SRC_NATIVE_REGION_MAPPER_H_
#define FAASNAP_SRC_NATIVE_REGION_MAPPER_H_

#include <cstdint>

#include "src/common/page_range.h"
#include "src/common/status.h"
#include "src/native/mapped_file.h"

namespace faasnap {

class NativeRegionMapper {
 public:
  NativeRegionMapper() = default;
  NativeRegionMapper(const NativeRegionMapper&) = delete;
  NativeRegionMapper& operator=(const NativeRegionMapper&) = delete;
  ~NativeRegionMapper();

  // Reserves `pages` of anonymous memory (the bottom layer). Must be called once,
  // first.
  Status ReserveAnonymous(uint64_t pages);

  // MAP_FIXED overlay: maps `guest` pages to `file` starting at file page
  // `file_start`, shared so page-cache behavior matches the VMM (MAP_PRIVATE
  // would CoW; Firecracker uses private mappings, but shared keeps this demo's
  // content checks simple while exercising the same fault path).
  Status MapFileRegion(const PageRange& guest, const NativeFile& file, PageIndex file_start);

  // Pointer to guest page `page` within the mapping.
  void* PageAddress(PageIndex page) const;
  uint8_t* base() const { return base_; }
  uint64_t pages() const { return pages_; }
  uint64_t mmap_call_count() const { return mmap_calls_; }

  // mincore(2) over the whole mapping: which guest pages are resident.
  Result<PageRangeSet> ResidentPages() const;

 private:
  uint8_t* base_ = nullptr;
  uint64_t pages_ = 0;
  uint64_t mmap_calls_ = 0;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_NATIVE_REGION_MAPPER_H_
