#include "workloads.hpp"

#include <cmath>
#include <cstdio>

#include "workload/applications.hpp"

namespace perfbench {

namespace {

std::string ms(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f", std::round(value));
  return buf;
}

/// Azure-shaped trace at the paper's "normal" mean rate (one arrival per
/// ~26.8 ms across all apps at rate-scale 1), one diurnal cycle over the
/// horizon in 500 ms bins.
esg::trace::AzureShapeOptions azure_shape(double horizon_ms,
                                          std::size_t tenants,
                                          double burst_factor) {
  esg::trace::AzureShapeOptions shape;
  shape.apps = esg::workload::kBuiltinAppCount;
  shape.bin_ms = 500.0;
  shape.bins = static_cast<std::size_t>(std::ceil(horizon_ms / shape.bin_ms));
  shape.mean_rate_per_bin = shape.bin_ms / 26.8;
  shape.tenants = tenants;
  shape.burst_factor = burst_factor;
  return shape;
}

}  // namespace

std::optional<Workload> find_workload(std::string_view name, double size) {
  Workload w;
  w.name = std::string(name);
  if (name == "azure-overload") {
    const double horizon = 5'000.0 * size;
    w.flags = {"--scheduler", "esg", "--slo", "moderate", "--load", "normal",
               "--nodes", "16", "--horizon-ms", ms(horizon)};
    w.trace_shape = azure_shape(horizon, 1, 4.0);
    w.rate_scale = 100.0;
    return w;
  }
  if (name == "steady-sized") {
    w.flags = {"--scheduler", "esg", "--slo", "strict", "--load", "heavy",
               "--nodes", "64", "--horizon-ms", ms(300'000.0 * size),
               "--warmup-ms", ms(40'000.0 * size)};
    return w;
  }
  if (name == "relaxed-search") {
    w.flags = {"--scheduler", "esg", "--slo", "relaxed", "--load", "heavy",
               "--nodes", "8", "--horizon-ms", ms(30'000.0 * size),
               "--warmup-ms", ms(10'000.0 * size)};
    return w;
  }
  if (name == "composed-observed") {
    const double horizon = 120'000.0 * size;
    const double t = horizon / 120'000.0;  // fault/elastic times scale along
    w.flags = {
        "--scheduler", "mqfq-sticky", "--slo", "moderate", "--load", "normal",
        "--nodes", "16", "--horizon-ms", ms(horizon), "--warmup-ms",
        ms(30'000.0 * t), "--elastic",
        "queue:min=12,max=24,out=4,idle-ms=" + ms(10'000.0 * t) +
            ",provision-ms=1000,shed=on",
        "--fault-spec",
        "crash:invoker=1,at=" + ms(50'000.0 * t) + ",down=" +
            ms(10'000.0 * t) +
            ";dispatch:prob=0.04;coldstart:prob=0.1;spot:at=" +
            ms(80'000.0 * t) + ",nodes=2,warn=1000",
        "--forecast", "ewma:alpha=0.3;lead-ms=2000,bin-ms=1000"};
    w.trace_shape = azure_shape(horizon, 3, 2.0);
    w.observed = true;
    return w;
  }
  return std::nullopt;
}

}  // namespace perfbench
