#include "src/cluster/router.h"

#include "src/common/status.h"

namespace faasnap {

const char* RoutingPolicyName(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kRandom:
      return "random";
    case RoutingPolicy::kRoundRobin:
      return "round_robin";
    case RoutingPolicy::kLocality:
      return "locality";
  }
  return "unknown";
}

Result<RoutingPolicy> ParseRoutingPolicy(const std::string& name) {
  for (RoutingPolicy policy :
       {RoutingPolicy::kRandom, RoutingPolicy::kRoundRobin, RoutingPolicy::kLocality}) {
    if (name == RoutingPolicyName(policy)) {
      return policy;
    }
  }
  return InvalidArgumentError("unknown routing policy: " + name);
}

namespace {

// Least-outstanding host, ties to the lowest index (deterministic).
size_t LeastLoaded(const std::vector<HostView>& hosts) {
  size_t best = 0;
  for (size_t i = 1; i < hosts.size(); ++i) {
    if (hosts[i].outstanding < hosts[best].outstanding) {
      best = i;
    }
  }
  return best;
}

}  // namespace

size_t ClusterRouter::RouteLocality(size_t function_index, ByteCount ws_bytes,
                                    const std::vector<HostView>& hosts) {
  // Pass 1: residency tiers under the spill threshold. Within a tier the
  // least-outstanding host wins (lowest index on ties), so a hot function
  // spreads across its replica set before spilling off it.
  const FunctionResidency tiers[] = {FunctionResidency::kWarm, FunctionResidency::kCached};
  for (FunctionResidency tier : tiers) {
    bool found = false;
    size_t best = 0;
    for (size_t i = 0; i < hosts.size(); ++i) {
      const HostView& host = hosts[i];
      if (host.residency[function_index] != tier ||
          host.outstanding >= config_.spill_outstanding) {
        continue;
      }
      if (!found || host.outstanding < hosts[best].outstanding) {
        found = true;
        best = i;
      }
    }
    if (found) {
      (tier == FunctionResidency::kWarm ? stats_.warm_routes : stats_.cached_routes)++;
      return best;
    }
  }

  // Pass 2: no resident host can take it. If nothing anywhere holds this
  // function it is a first sighting (cold route); otherwise the residency
  // preference saturated and the arrival spills. Either way, place the
  // inevitable restore where the working set fits the keep-alive budget —
  // least-outstanding among fitting hosts, least-outstanding overall if none
  // has headroom.
  bool anywhere = false;
  for (const HostView& host : hosts) {
    if (host.residency[function_index] != FunctionResidency::kCold) {
      anywhere = true;
      break;
    }
  }
  (anywhere ? stats_.spills : stats_.cold_routes)++;

  bool found = false;
  size_t best = 0;
  for (size_t i = 0; i < hosts.size(); ++i) {
    const HostView& host = hosts[i];
    if (host.pool_bytes + ws_bytes > host.pool_budget) {
      continue;
    }
    if (!found || host.outstanding < hosts[best].outstanding) {
      found = true;
      best = i;
    }
  }
  return found ? best : LeastLoaded(hosts);
}

size_t ClusterRouter::Route(size_t function_index, ByteCount ws_bytes,
                            const std::vector<HostView>& hosts) {
  FAASNAP_CHECK(!hosts.empty());
  FAASNAP_CHECK(function_index < hosts[0].residency.size());
  ++stats_.routed;
  switch (config_.policy) {
    case RoutingPolicy::kRandom:
      return rng_.NextBelow(hosts.size());
    case RoutingPolicy::kRoundRobin:
      return round_robin_next_++ % hosts.size();
    case RoutingPolicy::kLocality:
      return RouteLocality(function_index, ws_bytes, hosts);
  }
  return 0;
}

}  // namespace faasnap
