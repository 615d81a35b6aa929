#include "src/native/region_mapper.h"

#include <sys/mman.h>

#include <cerrno>
#include <cstring>
#include <vector>

#include "src/common/units.h"

namespace faasnap {

NativeRegionMapper::~NativeRegionMapper() {
  if (base_ != nullptr) {
    ::munmap(base_, PagesToBytes(pages_));
  }
}

Status NativeRegionMapper::ReserveAnonymous(uint64_t pages) {
  FAASNAP_CHECK(base_ == nullptr);
  void* addr = ::mmap(nullptr, PagesToBytes(pages), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (addr == MAP_FAILED) {
    return IoError(std::string("mmap anonymous base: ") + std::strerror(errno));
  }
  base_ = static_cast<uint8_t*>(addr);
  pages_ = pages;
  ++mmap_calls_;
  return OkStatus();
}

Status NativeRegionMapper::MapFileRegion(const PageRange& guest, const NativeFile& file,
                                         PageIndex file_start) {
  FAASNAP_CHECK(base_ != nullptr);
  FAASNAP_CHECK(guest.end() <= pages_);
  void* target = base_ + PagesToBytes(guest.first);
  void* addr = ::mmap(target, PagesToBytes(guest.count), PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_FIXED, file.fd(),
                      static_cast<off_t>(PagesToBytes(file_start)));
  if (addr == MAP_FAILED) {
    return IoError(std::string("mmap MAP_FIXED file region: ") + std::strerror(errno));
  }
  ++mmap_calls_;
  return OkStatus();
}

void* NativeRegionMapper::PageAddress(PageIndex page) const {
  FAASNAP_CHECK(base_ != nullptr && page < pages_);
  return base_ + PagesToBytes(page);
}

Result<PageRangeSet> NativeRegionMapper::ResidentPages() const {
  FAASNAP_CHECK(base_ != nullptr);
  std::vector<unsigned char> vec(pages_);
  if (::mincore(base_, PagesToBytes(pages_), vec.data()) != 0) {
    return IoError(std::string("mincore: ") + std::strerror(errno));
  }
  PageRangeSet resident;
  PageIndex run_start = 0;
  uint64_t run_len = 0;
  for (PageIndex p = 0; p < pages_; ++p) {
    if ((vec[p] & 1u) != 0) {
      if (run_len == 0) {
        run_start = p;
      }
      ++run_len;
    } else if (run_len > 0) {
      resident.Add(run_start, run_len);
      run_len = 0;
    }
  }
  if (run_len > 0) {
    resident.Add(run_start, run_len);
  }
  return resident;
}

}  // namespace faasnap
