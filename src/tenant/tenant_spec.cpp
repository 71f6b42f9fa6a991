#include "tenant/tenant_spec.hpp"

#include <set>
#include <stdexcept>

#include "common/spec.hpp"

namespace esg::tenant {

namespace {

using spec::fmt;

bool valid_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void parse_mode(const spec::Context& ctx, std::string_view field,
                TenantDef& def) {
  if (field == "time") {
    def.mode = ChargeMode::kTime;
  } else if (field == "energy") {
    def.mode = ChargeMode::kEnergy;
  } else if (field.starts_with("hybrid=")) {
    def.mode = ChargeMode::kHybrid;
    def.hybrid_alpha = spec::number(field.substr(7), "hybrid", ctx);
    if (def.hybrid_alpha < 0.0 || def.hybrid_alpha > 1.0) {
      ctx.fail("hybrid alpha must be in [0, 1]");
    }
  } else {
    ctx.fail("unknown charge mode '" + std::string(field) +
             "' (time|energy|hybrid=<alpha>)");
  }
}

void parse_apps(const spec::Context& ctx, std::string_view list,
                TenantDef& def) {
  if (list.empty()) ctx.fail("apps= needs at least one app id");
  for (const std::string_view item : spec::split(list, ',')) {
    if (item.empty()) ctx.fail("empty app id in apps=");
    def.apps.push_back(
        static_cast<std::uint32_t>(spec::count(item, "apps", ctx)));
  }
}

TenantDef parse_tenant_clause(std::string_view clause) {
  const spec::Context ctx{"tenant spec", clause};
  TenantDef def;
  // name : weight [: mode] [: apps=...] — fields split on ':'.
  const std::vector<std::string_view> fields = spec::split(clause, ':');
  if (fields.size() < 2) {
    ctx.fail("expected <name>:<weight>[:<mode>][:apps=...]");
  }
  if (!valid_name(fields[0])) {
    ctx.fail("tenant names must be non-empty [A-Za-z0-9_-]");
  }
  def.name = std::string(fields[0]);
  def.weight = spec::number(fields[1], "weight", ctx);
  if (def.weight <= 0.0) ctx.fail("weight must be > 0");

  bool saw_mode = false;
  bool saw_apps = false;
  for (std::size_t i = 2; i < fields.size(); ++i) {
    const std::string_view field = fields[i];
    if (field.starts_with("apps=")) {
      if (saw_apps) ctx.fail("duplicate apps= field");
      saw_apps = true;
      parse_apps(ctx, field.substr(5), def);
    } else {
      if (saw_mode) ctx.fail("duplicate charge-mode field");
      saw_mode = true;
      parse_mode(ctx, field, def);
    }
  }
  return def;
}

}  // namespace

std::string_view to_string(ChargeMode mode) {
  switch (mode) {
    case ChargeMode::kTime:
      return "time";
    case ChargeMode::kEnergy:
      return "energy";
    case ChargeMode::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

std::uint32_t TenantSpec::tenant_of(std::uint32_t app) const {
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (const std::uint32_t a : tenants[t].apps) {
      if (a == app) return static_cast<std::uint32_t>(t);
    }
  }
  return 0;
}

std::string TenantSpec::tenant_name(std::uint32_t t) const {
  if (t < tenants.size()) return tenants[t].name;
  return "t" + std::to_string(t);
}

TenantSpec parse_tenant_spec(std::string_view text) {
  TenantSpec spec;
  const std::vector<spec::Clause> clauses = spec::clauses(text);
  if (clauses.empty() || (clauses.size() == 1 && clauses[0].text == "none")) {
    return spec;
  }

  bool saw_throttle = false;
  for (const spec::Clause& clause : clauses) {
    if (!clause.text.starts_with("throttle=")) {
      spec.tenants.push_back(parse_tenant_clause(clause.text));
      continue;
    }
    const spec::Context ctx{"tenant spec", clause.text};
    if (saw_throttle) ctx.fail("duplicate throttle= clause");
    saw_throttle = true;
    spec.throttle_ms = spec::number(clause.text.substr(9), "throttle", ctx);
    if (spec.throttle_ms <= 0.0) ctx.fail("throttle must be > 0");
  }
  const std::string whole = spec::join(clauses);
  const spec::Context all{"tenant spec", whole};
  if (spec.tenants.empty()) all.fail("needs at least one tenant clause");

  std::set<std::string_view> names;
  std::set<std::uint32_t> claimed;
  for (const auto& def : spec.tenants) {
    if (!names.insert(def.name).second) {
      all.fail("duplicate tenant name '" + def.name + "'");
    }
    for (const std::uint32_t app : def.apps) {
      if (!claimed.insert(app).second) {
        all.fail("app " + std::to_string(app) +
                 " mapped to more than one tenant");
      }
    }
  }
  return spec;
}

TenantSpec load_tenant_spec(std::string_view arg) {
  return parse_tenant_spec(spec::resolve(arg, "tenant-spec"));
}

std::string to_string(const TenantSpec& spec) {
  if (!spec.enabled()) return "none";
  std::string out;
  for (const auto& def : spec.tenants) {
    if (!out.empty()) out += ";";
    out += def.name + ":" + fmt(def.weight);
    out += ":" + std::string(to_string(def.mode));
    if (def.mode == ChargeMode::kHybrid) out += "=" + fmt(def.hybrid_alpha);
    if (!def.apps.empty()) {
      out += ":apps=";
      for (std::size_t i = 0; i < def.apps.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(def.apps[i]);
      }
    }
  }
  out += ";throttle=" + fmt(spec.throttle_ms);
  return out;
}

TenantSpec resolve_for_trace(TenantSpec spec, std::size_t trace_tenants) {
  if (trace_tenants <= 1 && !spec.enabled()) return spec;
  if (!spec.enabled()) {
    // Trace-declared tenants with no --tenants spec: implicit equal weights.
    for (std::size_t t = 0; t < trace_tenants; ++t) {
      TenantDef def;
      def.name = "t" + std::to_string(t);
      spec.tenants.push_back(std::move(def));
    }
    return spec;
  }
  if (trace_tenants > spec.tenants.size()) {
    throw std::invalid_argument(
        "tenant spec declares " + std::to_string(spec.tenants.size()) +
        " tenant(s) but the trace references tenant id " +
        std::to_string(trace_tenants - 1));
  }
  return spec;
}

}  // namespace esg::tenant
