// VMM guest-memory address space: layered mmap regions + per-page install state.
//
// Models the guest-physical address space that the VMM hands to KVM. FaaSnap's
// hierarchical overlapping mapping (paper Figure 4) is expressed directly: an
// anonymous base layer for the whole space, memory-file regions MAP_FIXED'd over
// it, and loading-set-file regions MAP_FIXED'd over those. Map() applies overlay
// semantics — later calls override earlier ones where they overlap — and counts
// calls so setup cost reflects region-count optimizations (section 4.6).
//
// Mapping runs live in one array sorted by start page; a run extends to the next
// start. Runs are never coalesced: each Map leaves a run start at its first page
// and, unless it reaches the guest end, at its end, and removes the starts
// strictly between. Those boundaries are what MappingRun reports to range
// installs, huge regions and fault coalescing. MapLayer() applies a whole layer
// of pairwise-disjoint mmaps, given in any order, as one linear merge: the same
// runs and the same call count as one Map per request, in O(runs + requests)
// plus the sort.
//
// Per-page install state tracks whether an access faults at all:
//   kNotPresent  — first access faults (class depends on the backing),
//   kSoftPresent — host PTE exists (UFFDIO_COPY install) but the first guest access
//                  still takes one cheap guest-dimension fault,
//   kPresent     — access is free.
// Both SetInstallState forms also keep a resident count per block of
// kResidentBlockPages pages (one byte each: 4 KiB for a 2 GiB guest), so the
// anonymous footprint sums whole blocks and reads install bytes only in the
// partly covered blocks that hold residents.

#ifndef FAASNAP_SRC_MEM_ADDRESS_SPACE_H_
#define FAASNAP_SRC_MEM_ADDRESS_SPACE_H_

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/common/page_range.h"
#include "src/common/units.h"
#include "src/common/status.h"
#include "src/mem/page_cache.h"

namespace faasnap {

enum class BackingKind : uint8_t {
  kUnmapped = 0,
  kAnonymous,  // zero-fill host memory
  kFile,       // file-backed (memory file or loading set file)
};

// Resolution of one guest page to its backing.
struct PageBacking {
  BackingKind kind = BackingKind::kUnmapped;
  FileId file = kInvalidFileId;
  PageIndex file_page = 0;  // page offset within the backing file

  bool operator==(const PageBacking&) const = default;
};

// One mmap call: map `guest` pages to anonymous memory or to `file` starting at
// file page `file_start` (guest.first -> file_start, guest.first+1 -> file_start+1, ...).
struct MappingRequest {
  PageRange guest;
  BackingKind kind = BackingKind::kAnonymous;
  FileId file = kInvalidFileId;
  PageIndex file_start = 0;
};

enum class PageInstallState : uint8_t { kNotPresent = 0, kSoftPresent = 1, kPresent = 2 };

// Lifecycle of one 2 MiB-aligned huge region (huge-page fault-path lever):
//   kNone      — ordinary 4 KiB region,
//   kEligible  — dense enough (per the loading set) to be mapped huge; the first
//                fault installs the whole region,
//   kInstalled — one huge fault installed every page,
//   kSplit     — copy-on-touch fallback: the region was sparse or partially
//                backed, so it was split back to 4 KiB mappings (charged once).
enum class HugeRegionState : uint8_t { kNone = 0, kEligible, kInstalled, kSplit };

class AddressSpace {
 public:
  explicit AddressSpace(PageCount total_pages);

  // Applies one mmap with MAP_FIXED overlay semantics. Increments mmap_call_count.
  // Costs O(runs): map many regions as one MapLayer instead.
  void Map(const MappingRequest& request) { Overlay(std::span(&request, 1)); }

  // Applies one layer of mmaps that are pairwise disjoint (CHECKed), in any
  // order, as one merge. Runs and mmap_call_count end up exactly as after one
  // Map per request.
  void MapLayer(std::vector<MappingRequest> layer);

  // One mapping run: the pages sharing one mmap (same backing kind and file,
  // file offsets advancing linearly) and the backing of its first page.
  struct Mapping {
    PageRange run;
    PageBacking backing;

    // Backing of `page`, which must lie in `run`.
    PageBacking At(PageIndex page) const {
      PageBacking b = backing;
      if (b.kind == BackingKind::kFile) {
        b.file_page += page - run.first;
      }
      return b;
    }
  };

  // The mapping run holding `page` and its backing, in one search. The fault
  // path keeps it for the later pages of the run it serves.
  Mapping MappingOf(PageIndex page) const;

  // Backing of `page` under the current layering.
  PageBacking Resolve(PageIndex page) const { return MappingOf(page).At(page); }

  // The maximal run [start, end) of pages sharing one mapping with `page`.
  // Range installs and huge regions must not cross a run boundary.
  PageRange MappingRun(PageIndex page) const { return MappingOf(page).run; }

  PageCount total_pages() const { return total_pages_; }
  uint64_t mmap_call_count() const { return mmap_call_count_; }

  // Install-state tracking (the host page table for this VM).
  PageInstallState install_state(PageIndex page) const {
    return static_cast<PageInstallState>(install_[page]);
  }
  // Inline: every fault retire sets one page.
  void SetInstallState(PageIndex page, PageInstallState s) {
    FAASNAP_CHECK(page < limit());
    const bool was_resident = install_[page] != static_cast<uint8_t>(PageInstallState::kNotPresent);
    const bool now_resident = s != PageInstallState::kNotPresent;
    install_[page] = static_cast<uint8_t>(s);
    if (!was_resident && now_resident) {
      resident_pages_ += PageCount::FromPages(1);
      ++block_resident_[page / kResidentBlockPages];
    } else if (was_resident && !now_resident) {
      resident_pages_ -= PageCount::FromPages(1);
      --block_resident_[page / kResidentBlockPages];
    }
  }
  // Range form: one pass over the run with a single resident-count adjustment,
  // so batched installs are O(runs) rather than per-page bookkeeping.
  void SetInstallState(PageRange range, PageInstallState s);

  // True iff every page of `range` is in state `s`.
  bool AllInState(PageRange range, PageInstallState s) const;

  // Huge-region tracking (fault-path lever). Regions are `region_pages`-aligned
  // windows of the guest space; only regions explicitly marked eligible ever
  // leave kNone. Configure before marking; reconfiguring clears all marks.
  void ConfigureHugeRegions(PageCount region_pages);
  void MarkHugeEligible(PageIndex region_start);
  HugeRegionState huge_region_state(PageIndex page) const;
  void SetHugeRegionState(PageIndex page, HugeRegionState s);
  // The huge region containing `page`, clamped to the guest size.
  PageRange HugeRegionOf(PageIndex page) const;
  PageCount huge_region_pages() const { return huge_region_pages_; }

  // Number of installed pages (kSoftPresent or kPresent): the VMM's RSS as seen by
  // the daemon's procfs polling during the record phase (section 5).
  PageCount resident_pages() const { return resident_pages_; }

  // Present pages backed by anonymous memory (memory-footprint accounting, 7.3).
  // O(runs + blocks under anonymous runs), not O(pages).
  PageCount resident_anonymous_pages() const;

  // Pages whose contents were copied into anonymous memory by UFFDIO_COPY (REAP's
  // installs): charged as anonymous even though the mapping is file-backed.
  void NoteAnonCopies(uint64_t pages) { anon_copied_pages_ += PageCount::FromPages(pages); }
  PageCount anon_copied_pages() const { return anon_copied_pages_; }

 private:
  // Pages per resident-count block. At most 128 residents fit one byte.
  static constexpr uint64_t kResidentBlockPages = 128;

  // One mapping run: `backing` at `start`, file offsets advancing through it.
  struct Run {
    PageIndex start = 0;
    PageBacking backing;
  };

  // Raw page-index bound for the interval arithmetic below.
  uint64_t limit() const { return total_pages_.value(); }

  // Merges `layer` (validated, sorted by first page, disjoint) into runs_.
  void Overlay(std::span<const MappingRequest> layer);
  // Index of the run containing `page`.
  size_t RunIndex(PageIndex page) const;
  PageIndex RunEnd(size_t index) const {
    return index + 1 < runs_.size() ? runs_[index + 1].start : limit();
  }
  // Installed pages in [lo, hi).
  uint64_t CountResident(PageIndex lo, PageIndex hi) const;

  PageCount total_pages_;
  std::vector<Run> runs_;  // sorted by start; runs_[0].start == 0
  std::vector<uint8_t> install_;
  std::vector<uint8_t> block_resident_;  // installed pages per kResidentBlockPages block
  // Huge-region states keyed by region start; absent key = kNone. Sparse: only
  // marked regions appear, so the map stays proportional to the working set.
  std::map<PageIndex, HugeRegionState> huge_regions_;
  PageCount huge_region_pages_ = PageCount::FromPages(512);
  PageCount resident_pages_;
  PageCount anon_copied_pages_;
  uint64_t mmap_call_count_ = 0;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_MEM_ADDRESS_SPACE_H_
