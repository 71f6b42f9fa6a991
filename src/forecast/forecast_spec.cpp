#include "forecast/forecast_spec.hpp"

#include <vector>

#include "common/spec.hpp"

namespace esg::forecast {

using spec::fmt;

std::string_view to_string(ForecastKind kind) {
  switch (kind) {
    case ForecastKind::kNone:
      return "none";
    case ForecastKind::kOracle:
      return "oracle";
    case ForecastKind::kLastBin:
      return "last-bin";
    case ForecastKind::kEwma:
      return "ewma";
    case ForecastKind::kSeasonal:
      return "seasonal";
  }
  return "unknown";
}

ForecastSpec parse_forecast_spec(std::string_view text) {
  ForecastSpec spec;
  const std::vector<spec::Clause> clauses = spec::clauses(text);
  if (clauses.empty() || (clauses.size() == 1 && clauses[0].text == "none")) {
    return spec;
  }

  // The first clause names the predictor; the rest carry shared keys.
  const std::string whole = spec::join(clauses);
  const spec::Context ctx{"forecast spec", whole};
  const std::string_view head = clauses[0].text;
  const std::size_t colon = head.find(':');
  const std::string_view name = spec::trim(head.substr(0, colon));
  if (name == "oracle") {
    spec.kind = ForecastKind::kOracle;
  } else if (name == "last-bin") {
    spec.kind = ForecastKind::kLastBin;
  } else if (name == "ewma") {
    spec.kind = ForecastKind::kEwma;
  } else if (name == "seasonal") {
    spec.kind = ForecastKind::kSeasonal;
  } else {
    ctx.fail("unknown predictor '" + std::string(name) +
             "' (oracle|last-bin|ewma|seasonal|none)");
  }

  const std::string_view params =
      colon == std::string_view::npos ? "" : head.substr(colon + 1);
  for (const auto& [key, value] : spec::key_values(params, ctx)) {
    if (key == "alpha" && spec.kind == ForecastKind::kEwma) {
      spec.ewma_alpha = spec::number(value, key, ctx);
      if (spec.ewma_alpha <= 0.0 || spec.ewma_alpha > 1.0) {
        ctx.fail("alpha must be in (0, 1]");
      }
    } else if (key == "period-ms" && spec.kind == ForecastKind::kSeasonal) {
      spec.seasonal_period_ms = spec::number(value, key, ctx);
      if (spec.seasonal_period_ms <= 0.0) ctx.fail("period-ms must be > 0");
    } else if (key == "bins" && spec.kind == ForecastKind::kSeasonal) {
      spec.seasonal_bins = spec::count(value, key, ctx);
      if (spec.seasonal_bins == 0 || spec.seasonal_bins > (1u << 20)) {
        ctx.fail("bins must be in [1, 2^20]");
      }
    } else {
      ctx.fail("unknown key '" + std::string(key) + "' for predictor '" +
               std::string(name) + "'");
    }
  }

  spec::KeyValues shared;
  for (std::size_t i = 1; i < clauses.size(); ++i) {
    shared = spec::key_values(clauses[i].text, ctx, std::move(shared));
  }
  for (const auto& [key, value] : shared) {
    if (key == "lead-ms") {
      spec.lead_ms = spec::number(value, key, ctx);
      if (spec.lead_ms < 0.0) ctx.fail("lead-ms must be >= 0");
    } else if (key == "bin-ms") {
      spec.bin_ms = spec::number(value, key, ctx);
      if (spec.bin_ms <= 0.0) ctx.fail("bin-ms must be > 0");
    } else {
      ctx.fail("unknown key '" + std::string(key) + "'");
    }
  }
  return spec;
}

ForecastSpec load_forecast_spec(std::string_view arg) {
  return parse_forecast_spec(spec::resolve(arg, "forecast spec"));
}

std::string to_string(const ForecastSpec& spec) {
  if (!spec.enabled()) return "none";
  std::string out(to_string(spec.kind));
  if (spec.kind == ForecastKind::kEwma) {
    out += ":alpha=" + fmt(spec.ewma_alpha);
  } else if (spec.kind == ForecastKind::kSeasonal) {
    out += ":period-ms=" + fmt(spec.seasonal_period_ms);
    out += ",bins=" + std::to_string(spec.seasonal_bins);
  }
  out += ";lead-ms=" + fmt(spec.lead_ms);
  out += ",bin-ms=" + fmt(spec.bin_ms);
  return out;
}

}  // namespace esg::forecast
