// Snapshot-locality-aware cluster routing (paper section 2.1 at fleet scale).
//
// FaaSnap makes cold starts cheap when the snapshot's guest-memory pages are
// already resident: a host that recently served a function restores it from
// its page cache (or still holds the VM warm) far faster than a host reading
// the snapshot cold from disk. The dispatcher therefore prefers hosts by
// residency tier — warm VM > cached snapshot pages > cold — spilling to the
// least-loaded host when the preferred ones are saturated, and steering cold
// work toward pool-budget headroom so one host's keep-alive pool does not
// thrash while a neighbor idles.
//
// Determinism: Route() reads only the HostView vector passed in — a snapshot
// of per-host state published at the previous barrier epoch — plus the
// router's own RNG/counter. Routing a given arrival sequence against a given
// view sequence is a pure serial computation, independent of how many worker
// threads advance the shards between barriers.

#ifndef FAASNAP_SRC_CLUSTER_ROUTER_H_
#define FAASNAP_SRC_CLUSTER_ROUTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/units.h"

namespace faasnap {

enum class RoutingPolicy {
  kRandom,      // uniform over hosts (the no-information baseline)
  kRoundRobin,  // rotating counter (perfect load spread, no locality)
  kLocality,    // snapshot-residency tiers with load spill and budget fit
};

const char* RoutingPolicyName(RoutingPolicy policy);
// Parses "random" | "round_robin" | "locality"; InvalidArgument otherwise.
Result<RoutingPolicy> ParseRoutingPolicy(const std::string& name);

// What a host holds for one function, best tier first.
enum class FunctionResidency {
  kWarm,    // idle VM in the keep-alive pool: a routed arrival warm-hits
  kCached,  // served before: snapshot pages plausibly still in the page cache
  kCold,    // never served here: a miss pays the full restore read
};

// Per-host state as published at a barrier epoch. Index-aligned with the
// cluster's shard vector; `residency` is index-aligned with the function
// registry.
struct HostView {
  int64_t outstanding = 0;  // admitted in-flight + queued arrivals
  ByteCount pool_bytes;     // keep-alive pool occupancy
  ByteCount pool_budget;
  std::vector<FunctionResidency> residency;
};

struct RouterConfig {
  RoutingPolicy policy = RoutingPolicy::kLocality;
  uint64_t seed = 0xc10573;  // kRandom's private stream
  // Locality spill threshold: a warm/cached host with this many outstanding
  // requests (or more) stops attracting arrivals, so a hot function cannot
  // pile the whole offered load onto the one host that holds its snapshot.
  int64_t spill_outstanding = 8;
};

struct RouterStats {
  int64_t routed = 0;
  int64_t warm_routes = 0;    // sent to a host holding the VM warm
  int64_t cached_routes = 0;  // sent to a host with cached snapshot pages
  int64_t spills = 0;         // locality preference saturated; least-loaded
  int64_t cold_routes = 0;    // no host had residency (first sightings)
};

class ClusterRouter {
 public:
  explicit ClusterRouter(RouterConfig config) : config_(config), rng_(config.seed) {}

  // Picks the destination host for one arrival. `hosts` is the barrier-epoch
  // view; `ws_bytes` the function's predicted working set (budget fit).
  size_t Route(size_t function_index, ByteCount ws_bytes, const std::vector<HostView>& hosts);

  const RouterStats& stats() const { return stats_; }
  RoutingPolicy policy() const { return config_.policy; }

 private:
  size_t RouteLocality(size_t function_index, ByteCount ws_bytes,
                       const std::vector<HostView>& hosts);

  RouterConfig config_;
  Rng rng_;
  size_t round_robin_next_ = 0;
  RouterStats stats_;
};

}  // namespace faasnap

#endif  // FAASNAP_SRC_CLUSTER_ROUTER_H_
