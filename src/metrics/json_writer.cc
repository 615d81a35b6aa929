#include "src/metrics/json_writer.h"

#include "src/common/json_writer.h"

namespace faasnap {

std::string InvocationReportToJson(const InvocationReport& report) {
  JsonWriter json;
  json.BeginObject()
      .Field("function", report.function)
      .Field("mode", report.mode);
  // Outcome fields appear only for non-ok invocations, so reports from fault-free
  // runs stay byte-identical to builds that predate the chaos subsystem.
  if (report.outcome != InvocationOutcome::kOk) {
    json.Field("outcome", report.OutcomeTag());
    if (!report.degraded_mode.empty()) {
      json.Field("degraded_mode", report.degraded_mode);
    }
    if (!report.status.ok()) {
      json.Field("status", report.status.ToString());
    }
    if (!report.prefetch_failed_pages.is_zero()) {
      json.Field("prefetch_failed_pages", report.prefetch_failed_pages);
    }
  }
  json.Field("total_ms", report.total_time().millis())
      .Field("setup_ms", report.setup_time.millis())
      .Field("invocation_ms", report.invocation_time.millis())
      .Field("fetch_ms", report.fetch_time.millis())
      .Field("fetch_bytes", report.fetch_bytes)
      .Field("guest_pagefault_bytes", report.guest_pagefault_bytes)
      .Field("mmap_calls", report.mmap_calls)
      .Field("disk_read_requests", report.disk.read_requests)
      .Field("disk_bytes_read", report.disk.bytes_read)
      .Field("anon_resident_pages", report.anon_resident_pages)
      .Field("page_cache_pages", report.page_cache_pages);

  json.Key("faults").BeginObject();
  for (int i = 0; i < static_cast<int>(FaultClass::kClassCount); ++i) {
    const FaultClass cls = static_cast<FaultClass>(i);
    // The huge-install class only exists under the huge-page lever; omitting it
    // at zero keeps lever-off reports byte-identical to pre-lever builds.
    if (cls == FaultClass::kHugeInstall && report.faults.counts[i] == 0) {
      continue;
    }
    json.Field(std::string(FaultClassName(cls)), static_cast<int64_t>(report.faults.counts[i]));
  }
  // Lever attribution appears only when a lever actually produced work (same
  // byte-identity rule as above).
  if (report.faults.batch_installs > 0) {
    json.Field("batch_installs", report.faults.batch_installs)
        .Field("batch_installed_pages", report.faults.batch_installed_pages);
  }
  if (report.faults.huge_installs > 0 || report.faults.huge_splits > 0) {
    json.Field("huge_installs", report.faults.huge_installs)
        .Field("huge_installed_pages", report.faults.huge_installed_pages)
        .Field("huge_splits", report.faults.huge_splits);
  }
  if (!report.faults.coalesced_pages.is_zero()) {
    json.Field("coalesced_pages", report.faults.coalesced_pages);
  }
  json.Field("total_fault_time_ms", report.faults.total_fault_time.millis())
      .Field("total_wait_time_ms", report.faults.total_wait_time.millis())
      .EndObject();

  const Log2Histogram& h = report.faults.latency_histogram;
  json.Key("fault_latency_histogram").BeginArray();
  for (int i = 0; i < h.num_buckets(); ++i) {
    json.BeginObject()
        .Field("upper_ns", h.bucket_upper(i))
        .Field("count", h.bucket_count(i))
        .EndObject();
  }
  json.EndArray().EndObject();
  return json.TakeString();
}

}  // namespace faasnap
