#include "elastic/elastic_spec.hpp"

#include "common/spec.hpp"

namespace esg::elastic {

using spec::fmt;

std::string_view to_string(ElasticPolicy policy) {
  switch (policy) {
    case ElasticPolicy::kNone:
      return "none";
    case ElasticPolicy::kQueue:
      return "queue";
    case ElasticPolicy::kRate:
      return "rate";
    case ElasticPolicy::kForecast:
      return "forecast";
  }
  return "unknown";
}

ElasticSpec parse_elastic_spec(std::string_view text) {
  const std::string_view clause = spec::trim(text);
  ElasticSpec spec;
  if (clause.empty() || clause == "none") return spec;
  const spec::Context ctx{"elastic spec", clause};

  const std::size_t colon = clause.find(':');
  const std::string_view policy = spec::trim(clause.substr(0, colon));
  if (policy == "queue") {
    spec.policy = ElasticPolicy::kQueue;
  } else if (policy == "rate") {
    spec.policy = ElasticPolicy::kRate;
  } else if (policy == "forecast") {
    spec.policy = ElasticPolicy::kForecast;
  } else {
    ctx.fail("unknown policy '" + std::string(policy) +
             "' (queue|rate|forecast|none)");
  }

  const std::string_view keys =
      colon == std::string_view::npos ? "" : clause.substr(colon + 1);
  for (const auto& [key, value] : spec::key_values(keys, ctx)) {
    if (key == "min") {
      spec.min_nodes = spec::count(value, key, ctx);
    } else if (key == "max") {
      spec.max_nodes = spec::count(value, key, ctx);
    } else if (key == "out") {
      spec.out_threshold = spec::number(value, key, ctx);
      if (spec.out_threshold <= 0.0) ctx.fail("out must be > 0");
    } else if (key == "step") {
      spec.out_step = spec::count(value, key, ctx);
      if (spec.out_step == 0) ctx.fail("step must be >= 1");
    } else if (key == "idle-ms") {
      spec.idle_ms = spec::number(value, key, ctx);
      if (spec.idle_ms < 0.0) ctx.fail("idle-ms must be >= 0");
    } else if (key == "eval-ms") {
      spec.eval_ms = spec::number(value, key, ctx);
      if (spec.eval_ms <= 0.0) ctx.fail("eval-ms must be > 0");
    } else if (key == "provision-ms") {
      spec.provision_ms = spec::number(value, key, ctx);
      if (spec.provision_ms < 0.0) ctx.fail("provision-ms must be >= 0");
    } else if (key == "alpha") {
      spec.rate_alpha = spec::number(value, key, ctx);
      if (spec.rate_alpha <= 0.0 || spec.rate_alpha > 1.0) {
        ctx.fail("alpha must be in (0, 1]");
      }
    } else if (key == "shed") {
      spec.shed = spec::on_off(value, key, ctx);
    } else if (key == "shed-margin") {
      spec.shed_margin = spec::number(value, key, ctx);
      if (spec.shed_margin <= 0.0) ctx.fail("shed-margin must be > 0");
    } else {
      ctx.fail("unknown key '" + std::string(key) + "'");
    }
  }

  if (spec.max_nodes > 0 && spec.min_nodes > spec.max_nodes) {
    ctx.fail("min must be <= max");
  }
  return spec;
}

std::string to_string(const ElasticSpec& spec) {
  if (!spec.enabled()) return "none";
  std::string out(to_string(spec.policy));
  out += ":min=" + std::to_string(spec.min_nodes);
  out += ",max=" + std::to_string(spec.max_nodes);
  out += ",out=" + fmt(spec.out_threshold);
  out += ",step=" + std::to_string(spec.out_step);
  out += ",idle-ms=" + fmt(spec.idle_ms);
  out += ",eval-ms=" + fmt(spec.eval_ms);
  out += ",provision-ms=" + fmt(spec.provision_ms);
  if (spec.policy == ElasticPolicy::kRate) {
    out += ",alpha=" + fmt(spec.rate_alpha);
  }
  out += ",shed=";
  out += spec.shed ? "on" : "off";
  if (spec.shed) out += ",shed-margin=" + fmt(spec.shed_margin);
  return out;
}

}  // namespace esg::elastic
