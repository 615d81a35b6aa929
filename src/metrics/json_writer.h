// InvocationReport JSON serialization for downstream tooling (plotting scripts,
// dashboards, the CLI's --json flag). The generic streaming JsonWriter lives in
// src/common/json_writer.h.

#ifndef FAASNAP_SRC_METRICS_JSON_WRITER_H_
#define FAASNAP_SRC_METRICS_JSON_WRITER_H_

#include <string>

#include "src/metrics/report.h"

namespace faasnap {

// Full InvocationReport as a JSON object (times in milliseconds, sizes in bytes,
// fault counts by class, and the latency histogram buckets).
std::string InvocationReportToJson(const InvocationReport& report);

}  // namespace faasnap

#endif  // FAASNAP_SRC_METRICS_JSON_WRITER_H_
