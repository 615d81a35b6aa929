#include "src/mem/address_space.h"

#include <algorithm>

namespace faasnap {

AddressSpace::AddressSpace(PageCount total_pages) : total_pages_(total_pages) {
  FAASNAP_CHECK(!total_pages.is_zero());
  install_.assign(total_pages.value(), static_cast<uint8_t>(PageInstallState::kNotPresent));
  block_resident_.assign((total_pages.value() + kResidentBlockPages - 1) / kResidentBlockPages, 0);
  runs_.push_back(Run{0, PageBacking{BackingKind::kUnmapped, kInvalidFileId, 0}});
}

void AddressSpace::MapLayer(std::vector<MappingRequest> layer) {
  const auto by_first = [](const MappingRequest& a, const MappingRequest& b) {
    return a.guest.first < b.guest.first;
  };
  if (!std::is_sorted(layer.begin(), layer.end(), by_first)) {
    std::sort(layer.begin(), layer.end(), by_first);
  }
  Overlay(layer);
}

void AddressSpace::Overlay(std::span<const MappingRequest> layer) {
  std::vector<Run> merged;
  merged.reserve(runs_.size() + 2 * layer.size());
  PageIndex prev_end = 0;
  size_t next = 0;  // first old run not yet copied or dropped
  for (const MappingRequest& request : layer) {
    FAASNAP_CHECK(!request.guest.empty());
    FAASNAP_CHECK(request.guest.end() <= limit());
    FAASNAP_CHECK(request.guest.first >= prev_end && "layer requests must be disjoint");
    if (request.kind == BackingKind::kFile) {
      FAASNAP_CHECK(request.file != kInvalidFileId);
    }
    const PageIndex lo = request.guest.first;
    const PageIndex hi = request.guest.end();
    prev_end = hi;
    // Old runs starting before lo stay; the one containing lo keeps its prefix.
    while (next < runs_.size() && runs_[next].start < lo) {
      merged.push_back(runs_[next++]);
    }
    // Only a resumption pushed at the previous request's end can start at lo;
    // this request overrides it.
    if (!merged.empty() && merged.back().start == lo) {
      merged.pop_back();
    }
    merged.push_back(Run{lo, PageBacking{request.kind, request.file, request.file_start}});
    // Drop the starts inside [lo, hi). The old mapping resumes at hi, its file
    // offset advanced to hi, unless an old run starts exactly there.
    while (next < runs_.size() && runs_[next].start < hi) {
      ++next;
    }
    if (hi < limit() && (next == runs_.size() || runs_[next].start != hi)) {
      Run resumed = runs_[next - 1];
      if (resumed.backing.kind == BackingKind::kFile) {
        resumed.backing.file_page += hi - resumed.start;
      }
      resumed.start = hi;
      merged.push_back(resumed);
    }
  }
  merged.insert(merged.end(), runs_.begin() + static_cast<std::ptrdiff_t>(next), runs_.end());
  runs_ = std::move(merged);
  mmap_call_count_ += layer.size();
}

size_t AddressSpace::RunIndex(PageIndex page) const {
  FAASNAP_CHECK(page < limit());
  const auto it = std::upper_bound(runs_.begin(), runs_.end(), page,
                                   [](PageIndex p, const Run& run) { return p < run.start; });
  return static_cast<size_t>(it - runs_.begin()) - 1;
}

AddressSpace::Mapping AddressSpace::MappingOf(PageIndex page) const {
  const size_t index = RunIndex(page);
  return Mapping{PageRange{runs_[index].start, RunEnd(index) - runs_[index].start},
                 runs_[index].backing};
}

void AddressSpace::SetInstallState(PageRange range, PageInstallState s) {
  FAASNAP_CHECK(range.end() <= limit());
  const bool now_resident = s != PageInstallState::kNotPresent;
  const uint8_t value = static_cast<uint8_t>(s);
  int64_t resident_delta = 0;
  PageIndex p = range.first;
  while (p < range.end()) {
    const uint64_t block = p / kResidentBlockPages;
    const PageIndex segment_end = std::min(range.end(), (block + 1) * kResidentBlockPages);
    int block_delta = 0;
    for (; p < segment_end; ++p) {
      const bool was_resident =
          install_[p] != static_cast<uint8_t>(PageInstallState::kNotPresent);
      block_delta += static_cast<int>(now_resident) - static_cast<int>(was_resident);
      install_[p] = value;
    }
    block_resident_[block] = static_cast<uint8_t>(block_resident_[block] + block_delta);
    resident_delta += block_delta;
  }
  resident_pages_ = PageCount::FromPages(
      static_cast<uint64_t>(static_cast<int64_t>(resident_pages_.value()) + resident_delta));
}

bool AddressSpace::AllInState(PageRange range, PageInstallState s) const {
  FAASNAP_CHECK(range.end() <= limit());
  const uint8_t value = static_cast<uint8_t>(s);
  for (PageIndex p = range.first; p < range.end(); ++p) {
    if (install_[p] != value) {
      return false;
    }
  }
  return true;
}

void AddressSpace::ConfigureHugeRegions(PageCount region_pages) {
  FAASNAP_CHECK(!region_pages.is_zero());
  huge_region_pages_ = region_pages;
  huge_regions_.clear();
}

PageRange AddressSpace::HugeRegionOf(PageIndex page) const {
  FAASNAP_CHECK(page < limit());
  const uint64_t region = huge_region_pages_.value();
  const PageIndex start = page - page % region;
  const PageIndex end = std::min(start + region, limit());
  return PageRange{start, end - start};
}

void AddressSpace::MarkHugeEligible(PageIndex region_start) {
  FAASNAP_CHECK(region_start < limit());
  FAASNAP_CHECK(region_start % huge_region_pages_.value() == 0);
  huge_regions_[region_start] = HugeRegionState::kEligible;
}

HugeRegionState AddressSpace::huge_region_state(PageIndex page) const {
  FAASNAP_CHECK(page < limit());
  auto it = huge_regions_.find(page - page % huge_region_pages_.value());
  return it == huge_regions_.end() ? HugeRegionState::kNone : it->second;
}

void AddressSpace::SetHugeRegionState(PageIndex page, HugeRegionState s) {
  FAASNAP_CHECK(page < limit());
  huge_regions_[page - page % huge_region_pages_.value()] = s;
}

uint64_t AddressSpace::CountResident(PageIndex lo, PageIndex hi) const {
  uint64_t count = 0;
  PageIndex p = lo;
  while (p < hi) {
    const uint64_t block = p / kResidentBlockPages;
    const PageIndex block_first = block * kResidentBlockPages;
    const PageIndex block_end = std::min(block_first + kResidentBlockPages, limit());
    const PageIndex segment_end = std::min(block_end, hi);
    if (p == block_first && segment_end == block_end) {
      count += block_resident_[block];
    } else if (block_resident_[block] != 0) {
      for (PageIndex q = p; q < segment_end; ++q) {
        count += install_[q] != static_cast<uint8_t>(PageInstallState::kNotPresent) ? 1 : 0;
      }
    }
    p = segment_end;
  }
  return count;
}

PageCount AddressSpace::resident_anonymous_pages() const {
  uint64_t count = 0;
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i].backing.kind == BackingKind::kAnonymous) {
      count += CountResident(runs_[i].start, RunEnd(i));
    }
  }
  return PageCount::FromPages(count);
}

}  // namespace faasnap
