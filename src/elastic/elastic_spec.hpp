// Declarative elastic-fleet policy (DESIGN.md §11).
//
// An ElasticSpec describes how the fleet grows and shrinks, parsed from the
// `--elastic` CLI string. The grammar is one clause, `policy:key=value,...`,
// under the shared spec rules (DESIGN.md §5, "Spec grammar"):
//
//   queue:min=2,max=16,out=8,step=2,idle-ms=30000
//       scale out `step` nodes whenever the controller's backlog exceeds
//       `out` queued jobs per in-fleet node; scale in nodes idle for
//       `idle-ms` (0 disables scale-in), never below `min` or above `max`
//   rate:min=2,max=16,out=4,alpha=0.3,idle-ms=30000
//       same lifecycle, but the scale-out signal is an EWMA of the request
//       arrival rate (arrivals/s per in-fleet node exceeding `out`)
//   forecast:min=2,max=16,out=4,provision-ms=2000
//       same lifecycle, but the scale-out signal is the *forecast* arrival
//       rate `provision-ms` ahead (arrivals/s per in-fleet node exceeding
//       `out`), so capacity activates as the predicted demand lands; needs
//       a forecaster (--forecast) wired at run assembly
//
// Shared keys (both policies):
//   min=<n>          floor for scale-in; 0 allows scale-to-zero   (default 1)
//   max=<n>          fleet ceiling; 0 = the run's --nodes value   (default 0)
//   out=<f>          scale-out threshold (per-node backlog/rate)  (default 8)
//   step=<n>         nodes acquired per scale-out decision        (default 1)
//   idle-ms=<ms>     idle time before scale-in; 0 disables        (default 30000)
//   eval-ms=<ms>     min spacing between policy evaluations       (default 250)
//   provision-ms=<ms> lead time before an acquired node activates (default 2000)
//   alpha=<f>        EWMA smoothing in (0, 1], rate policy only   (default 0.3)
//   shed=on|off      admission control with load shedding         (default off)
//   shed-margin=<f>  shed when projected latency > margin x SLO   (default 1)
//
// A spec whose
// policy can never act (min == max and scale-in disabled, shedding off) is
// *inert*: the platform evaluates it to pure no-ops, which is what keeps a
// zero-churn elastic run byte-identical to the static fleet.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace esg::elastic {

enum class ElasticPolicy : std::uint8_t {
  kNone,   ///< no elasticity (static fleet)
  kQueue,  ///< scale out on queued jobs per in-fleet node
  kRate,   ///< scale out on EWMA arrival rate per in-fleet node
  kForecast,  ///< scale out on forecast arrival rate per in-fleet node
};

[[nodiscard]] std::string_view to_string(ElasticPolicy policy);

struct ElasticSpec {
  ElasticPolicy policy = ElasticPolicy::kNone;
  std::size_t min_nodes = 1;
  std::size_t max_nodes = 0;  ///< 0 = resolved to the scenario's node count
  double out_threshold = 8.0;
  std::size_t out_step = 1;
  TimeMs idle_ms = 30'000.0;
  TimeMs eval_ms = 250.0;
  TimeMs provision_ms = 2'000.0;
  double rate_alpha = 0.3;
  bool shed = false;
  double shed_margin = 1.0;

  [[nodiscard]] bool enabled() const { return policy != ElasticPolicy::kNone; }

  /// True when the policy can never change the fleet or reject a request:
  /// min == max (no headroom either way once resolved), scale-in disabled,
  /// shedding off. Inert specs are evaluated to pure no-ops.
  [[nodiscard]] bool inert() const {
    return !enabled() ||
           (min_nodes == max_nodes && idle_ms <= 0.0 && !shed);
  }
};

/// Parses the clause grammar above. Throws std::invalid_argument on
/// malformed input, unknown keys/policies, or out-of-range values.
[[nodiscard]] ElasticSpec parse_elastic_spec(std::string_view text);

/// Canonical round-trippable rendering (parse(to_string(s)) ~ s).
[[nodiscard]] std::string to_string(const ElasticSpec& spec);

}  // namespace esg::elastic
