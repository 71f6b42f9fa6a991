#include "common/spec.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace esg::spec {

void Context::fail(const std::string& why) const {
  std::string msg(what);
  if (line > 0) msg += " line " + std::to_string(line);
  if (!quote.empty()) msg += " '" + std::string(quote) + "'";
  if (!msg.empty()) msg += ": ";
  throw std::invalid_argument(msg + why);
}

std::string_view trim(std::string_view s) {
  const auto blank = [](char c) { return c == ' ' || c == '\t' || c == '\r'; };
  while (!s.empty() && blank(s.front())) s.remove_prefix(1);
  while (!s.empty() && blank(s.back())) s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t cut = s.find(sep, pos);
    out.push_back(trim(s.substr(pos, cut - pos)));
    if (cut == std::string_view::npos) return out;
    pos = cut + 1;
  }
}

std::vector<Clause> clauses(std::string_view text) {
  std::vector<Clause> out;
  std::size_t line = 0;
  for (const std::string_view raw : split(text, '\n')) {
    ++line;
    if (raw.empty() || raw.front() == '#') continue;
    for (const std::string_view clause : split(raw, ';')) {
      if (!clause.empty()) out.push_back(Clause{clause, line});
    }
  }
  return out;
}

std::string join(const std::vector<Clause>& clauses) {
  std::string out;
  for (const Clause& clause : clauses) {
    if (!out.empty()) out += ';';
    out += clause.text;
  }
  return out;
}

KeyValues key_values(std::string_view body, const Context& ctx,
                     KeyValues into) {
  for (const std::string_view pair : split(body, ',')) {
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    const std::string_view key =
        trim(pair.substr(0, eq == std::string_view::npos ? 0 : eq));
    const std::string_view value =
        eq == std::string_view::npos ? "" : trim(pair.substr(eq + 1));
    if (key.empty() || value.empty()) {
      ctx.fail("expected key=value, got '" + std::string(pair) + "'");
    }
    if (!into.emplace(key, value).second) {
      ctx.fail("duplicate key '" + std::string(key) + "'");
    }
  }
  return into;
}

double number(std::string_view v, std::string_view key, const Context& ctx) {
  double out = 0.0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  // from_chars accepts "nan" and "inf"; NaN in particular would slip through
  // every later `< 0` range check.
  if (ec != std::errc{} || ptr != end || !std::isfinite(out)) {
    ctx.fail("malformed number for '" + std::string(key) + "': '" +
             std::string(v) + "'");
  }
  return out;
}

std::uint64_t count(std::string_view v, std::string_view key,
                    const Context& ctx, std::uint64_t limit) {
  const double d = number(v, key, ctx);
  if (d < 0.0 || d != std::floor(d) || d >= static_cast<double>(limit)) {
    ctx.fail("'" + std::string(key) + "' must be an integer in [0, " +
             std::to_string(limit) + "), got '" + std::string(v) + "'");
  }
  return static_cast<std::uint64_t>(d);
}

bool on_off(std::string_view v, std::string_view key, const Context& ctx) {
  if (v == "on" || v == "true" || v == "1") return true;
  if (v == "off" || v == "false" || v == "0") return false;
  ctx.fail("malformed boolean for '" + std::string(key) + "': '" +
           std::string(v) + "' (on|off)");
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

std::string resolve(std::string_view arg, std::string_view what) {
  if (!arg.starts_with('@')) return std::string(arg);
  const std::string path(arg.substr(1));
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument(std::string(what) + " file '" + path +
                                "' is unreadable");
  }
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

}  // namespace esg::spec
