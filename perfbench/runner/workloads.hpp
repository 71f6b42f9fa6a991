// The benchmark's four named workloads. Each is an esg_sim flag list (parsed
// by exp::parse_cli, the CLI's own surface) plus, for trace replays, the
// shape of the Azure-style trace the runner generates and writes to disk
// before the run. README.md says why each workload exists.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace/azure_shape.hpp"

namespace perfbench {

/// Seed of every Azure-shaped trace. The shape (diurnal curve, app
/// popularity, burst episodes) stays fixed, like a recorded production
/// trace; --seed drives the replay's Poisson draws, execution noise and
/// fault draws. A seeded shape would swing a replay's request count by 3x.
inline constexpr std::uint64_t kTraceShapeSeed = 7;

struct Workload {
  std::string name;
  /// esg_sim flags, without --arrivals for trace replays (the runner adds
  /// `trace:@<file>,rate-scale=<rate_scale>` once the file is written).
  std::vector<std::string> flags;
  /// Set for trace replays: the Azure-shaped trace to generate.
  std::optional<esg::trace::AzureShapeOptions> trace_shape;
  double rate_scale = 1.0;
  /// Attribution report, stats JSONL and Chrome trace on for the whole run
  /// (written to a discarding stream). Off for every other workload.
  bool observed = false;
};

/// The named workload at `size` times its benchmark length (1.0 = the
/// benchmark; the smoke test uses a small fraction). Times inside the
/// fault and elastic specs scale with the horizon. nullopt for an unknown
/// name.
[[nodiscard]] std::optional<Workload> find_workload(std::string_view name,
                                                    double size);

}  // namespace perfbench
