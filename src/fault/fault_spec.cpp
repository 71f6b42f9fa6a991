#include "fault/fault_spec.hpp"

#include "common/spec.hpp"

namespace esg::fault {

namespace {

using spec::fmt;

/// Pops `key`'s value from the clause's pairs; the key must be present.
std::string_view take(spec::KeyValues& kv, const spec::Context& ctx,
                      std::string_view key) {
  const auto it = kv.find(key);
  if (it == kv.end()) ctx.fail("missing key '" + std::string(key) + "'");
  const std::string_view v = it->second;
  kv.erase(it);
  return v;
}

double number(spec::KeyValues& kv, const spec::Context& ctx,
              std::string_view key) {
  return spec::number(take(kv, ctx, key), key, ctx);
}

TimeMs time_ms(spec::KeyValues& kv, const spec::Context& ctx,
               std::string_view key) {
  const double v = number(kv, ctx, key);
  if (v < 0.0) ctx.fail(std::string(key) + " must be >= 0");
  return v;
}

std::uint32_t id(spec::KeyValues& kv, const spec::Context& ctx,
                 std::string_view key) {
  return static_cast<std::uint32_t>(spec::count(take(kv, ctx, key), key, ctx));
}

double probability(spec::KeyValues& kv, const spec::Context& ctx) {
  const double v = number(kv, ctx, "prob");
  if (v < 0.0 || v > 1.0) ctx.fail("prob must be in [0, 1]");
  return v;
}

/// Parses one clause; `crash_lines` collects each crash clause's source line
/// for the overlap diagnostics.
void parse_clause(FaultSpec& spec, const spec::Clause& clause,
                  std::vector<std::size_t>& crash_lines) {
  const spec::Context ctx{"fault-spec clause", clause.text};
  const std::size_t colon = clause.text.find(':');
  if (colon == std::string_view::npos) {
    ctx.fail("expected kind:key=value,...");
  }
  const std::string_view kind = spec::trim(clause.text.substr(0, colon));
  auto kv = spec::key_values(clause.text.substr(colon + 1), ctx);

  if (kind == "crash") {
    CrashWindow c;
    c.invoker = InvokerId(id(kv, ctx, "invoker"));
    c.at_ms = time_ms(kv, ctx, "at");
    c.down_ms = time_ms(kv, ctx, "down");
    spec.crashes.push_back(c);
    crash_lines.push_back(clause.line);
  } else if (kind == "dispatch" || kind == "coldstart") {
    const double prob = probability(kv, ctx);
    std::optional<FunctionId> function;
    if (kv.contains("function")) function = FunctionId(id(kv, ctx, "function"));
    if (kind == "dispatch") {
      spec.dispatch.push_back(DispatchFault{prob, function});
    } else {
      spec.cold_start.push_back(ColdStartFault{prob, function});
    }
  } else if (kind == "slow") {
    SlowdownWindow w;
    w.invoker = InvokerId(id(kv, ctx, "invoker"));
    w.at_ms = time_ms(kv, ctx, "at");
    w.duration_ms = time_ms(kv, ctx, "for");
    w.factor = number(kv, ctx, "factor");
    if (w.factor < 1.0) ctx.fail("factor must be >= 1");
    spec.slowdowns.push_back(w);
  } else if (kind == "spot") {
    SpotReclamation s;
    s.at_ms = time_ms(kv, ctx, "at");
    s.nodes = id(kv, ctx, "nodes");
    if (s.nodes == 0) ctx.fail("nodes must be >= 1");
    if (kv.contains("warn")) s.warn_ms = time_ms(kv, ctx, "warn");
    spec.spot.push_back(s);
  } else {
    ctx.fail("unknown kind '" + std::string(kind) +
             "' (crash|dispatch|coldstart|slow|spot)");
  }
  if (!kv.empty()) {
    ctx.fail("unknown key '" + std::string(kv.begin()->first) + "'");
  }
}

/// Rejects crash windows on the same invoker whose [at, at+down) intervals
/// overlap: the second crash would fire on an already-dead node and its
/// rejoin would revive the node while the other window is still open.
/// Back-to-back windows (one ending exactly where the next starts) are
/// fine — the rejoin event is scheduled before the next crash.
void reject_overlapping_crashes(const FaultSpec& spec,
                                const std::vector<std::size_t>& crash_lines) {
  for (std::size_t i = 0; i < spec.crashes.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.crashes.size(); ++j) {
      const CrashWindow& a = spec.crashes[i];
      const CrashWindow& b = spec.crashes[j];
      if (a.invoker != b.invoker) continue;
      if (a.at_ms + a.down_ms > b.at_ms && b.at_ms + b.down_ms > a.at_ms) {
        spec::Context{"fault-spec", {}, crash_lines[j]}.fail(
            "crash window on invoker " + std::to_string(b.invoker.get()) +
            " [" + fmt(b.at_ms) + ", " + fmt(b.at_ms + b.down_ms) +
            ") overlaps the window at line " +
            std::to_string(crash_lines[i]) + " [" + fmt(a.at_ms) + ", " +
            fmt(a.at_ms + a.down_ms) + ")");
      }
    }
  }
}

}  // namespace

bool FaultSpec::inert() const {
  if (!crashes.empty()) return false;
  for (const auto& s : spot) {
    if (s.nodes > 0) return false;
  }
  for (const auto& d : dispatch) {
    if (d.prob > 0.0) return false;
  }
  for (const auto& c : cold_start) {
    if (c.prob > 0.0) return false;
  }
  for (const auto& s : slowdowns) {
    if (s.factor > 1.0) return false;
  }
  return true;
}

FaultSpec parse_fault_spec(std::string_view text) {
  FaultSpec spec;
  std::vector<std::size_t> crash_lines;
  for (const spec::Clause& clause : spec::clauses(text)) {
    parse_clause(spec, clause, crash_lines);
  }
  reject_overlapping_crashes(spec, crash_lines);
  return spec;
}

FaultSpec load_fault_spec(std::string_view arg) {
  return parse_fault_spec(spec::resolve(arg, "fault-spec"));
}

std::string to_string(const FaultSpec& spec) {
  std::string out;
  const auto clause = [&out](const std::string& s) {
    if (!out.empty()) out += ';';
    out += s;
  };
  for (const auto& c : spec.crashes) {
    clause("crash:invoker=" + std::to_string(c.invoker.get()) +
           ",at=" + fmt(c.at_ms) + ",down=" + fmt(c.down_ms));
  }
  for (const auto& d : spec.dispatch) {
    std::string s = "dispatch:prob=" + fmt(d.prob);
    if (d.function) s += ",function=" + std::to_string(d.function->get());
    clause(s);
  }
  for (const auto& c : spec.cold_start) {
    std::string s = "coldstart:prob=" + fmt(c.prob);
    if (c.function) s += ",function=" + std::to_string(c.function->get());
    clause(s);
  }
  for (const auto& w : spec.slowdowns) {
    clause("slow:invoker=" + std::to_string(w.invoker.get()) +
           ",at=" + fmt(w.at_ms) + ",for=" + fmt(w.duration_ms) +
           ",factor=" + fmt(w.factor));
  }
  for (const auto& s : spec.spot) {
    std::string str = "spot:at=" + fmt(s.at_ms) +
                      ",nodes=" + std::to_string(s.nodes);
    if (s.warn_ms > 0.0) str += ",warn=" + fmt(s.warn_ms);
    clause(str);
  }
  return out;
}

}  // namespace esg::fault
