#include "src/core/recorder.h"

#include <utility>

namespace faasnap {

FaasnapRecorder::FaasnapRecorder(const PageCache* cache, FileId memory_file, uint64_t group_size)
    : cache_(cache), memory_file_(memory_file), group_size_(group_size) {
  FAASNAP_CHECK(cache_ != nullptr);
  FAASNAP_CHECK(group_size_ > 0);
}

void FaasnapRecorder::OnAccess(PageIndex page, FaultClass cls) {
  if (cls == FaultClass::kNoFault) {
    return;  // repeat access; RSS unchanged
  }
  pending_resident_.AddPage(page);
  if (++new_resident_since_scan_ >= group_size_) {
    Scan();
  }
}

void FaasnapRecorder::Scan() {
  ++scan_count_;
  new_resident_since_scan_ = 0;
  // mincore over the mapped memory file sees (a) pages the guest touched (resident
  // in the VMM) and (b) pages readahead brought into the page cache.
  PageRangeSet present = cache_->PresentPages(memory_file_);
  present.UnionInPlace(std::move(pending_resident_).Build());
  pending_resident_ = PageRangeSet::Builder();
  present.SubtractInPlace(recorded_);
  if (present.empty()) {
    return;
  }
  recorded_.UnionInPlace(present);
  groups_.groups.push_back(std::move(present));
}

WorkingSetGroups FaasnapRecorder::Finish() {
  Scan();
  return std::move(groups_);
}

void ReapRecorder::OnAccess(PageIndex page, FaultClass cls) {
  if (cls == FaultClass::kNoFault) {
    return;
  }
  if (page >= seen_.size()) {
    seen_.resize(page + 1);
  } else if (seen_[page]) {
    return;
  }
  seen_[page] = true;
  pages_.push_back(page);
}

ReapWorkingSetFile ReapRecorder::Finish() && {
  ReapWorkingSetFile file;
  file.guest_pages = std::move(pages_);
  return file;
}

}  // namespace faasnap
