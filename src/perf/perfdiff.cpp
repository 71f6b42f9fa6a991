#include "perf/perfdiff.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace esg::perf {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader. The artefacts we diff are machine-written, but the
// parser still rejects malformed input with a position so a truncated or
// hand-edited baseline fails loudly (exit 2) instead of diffing garbage.
// Member order is preserved: it determines the stable flattened-path order.
// ---------------------------------------------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;
};

class Parser {
 public:
  Parser(const std::string& text, const std::string& label)
      : text_(text), label_(label) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument(label_ + ": malformed JSON at offset " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume_word(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      Json v;
      v.kind = Json::Kind::kString;
      v.string = string_literal();
      return v;
    }
    if (consume_word("true")) {
      Json v;
      v.kind = Json::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_word("false")) {
      Json v;
      v.kind = Json::Kind::kBool;
      return v;
    }
    if (consume_word("null")) return Json{};
    return number();
  }

  std::string string_literal() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // Artefact strings are json_safe'd ASCII; keep the escape verbatim.
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            out += "\\u" + text_.substr(pos_, 4);
            pos_ += 4;
            break;
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(v)) {
      fail("invalid number '" + token + "'");
    }
    Json out;
    out.kind = Json::Kind::kNumber;
    out.number = v;
    return out;
  }

  Json array() {
    expect('[');
    Json v;
    v.kind = Json::Kind::kArray;
    skip_ws();
    if (consume(']')) return v;
    for (;;) {
      v.array.push_back(value());
      skip_ws();
      if (consume(']')) return v;
      expect(',');
    }
  }

  Json object() {
    expect('{');
    Json v;
    v.kind = Json::Kind::kObject;
    skip_ws();
    if (consume('}')) return v;
    for (;;) {
      skip_ws();
      std::string key = string_literal();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (consume('}')) return v;
      expect(',');
    }
  }

  const std::string& text_;
  std::string label_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Flattening
// ---------------------------------------------------------------------------

std::string trim_number(double v) {
  std::string s = std::to_string(v);
  if (s.find('.') != std::string::npos) {
    while (!s.empty() && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
  }
  return s;
}

/// Stable identity for an array element: its string members plus
/// rate_scale/seed (numbers our artefacts use as identifiers), else the
/// element index.
std::string element_key(const Json& element, std::size_t index) {
  if (element.kind != Json::Kind::kObject) return std::to_string(index);
  std::string key;
  for (const auto& [name, member] : element.object) {
    const bool id_number = member.kind == Json::Kind::kNumber &&
                           (name == "rate_scale" || name == "seed");
    if (member.kind != Json::Kind::kString && !id_number) continue;
    if (!key.empty()) key += ",";
    key += name + "=" +
           (id_number ? trim_number(member.number) : member.string);
  }
  return key.empty() ? std::to_string(index) : key;
}

struct Leaf {
  std::string path;
  double value;
};

void flatten(const Json& v, const std::string& path, std::vector<Leaf>& out) {
  switch (v.kind) {
    case Json::Kind::kNumber:
      out.push_back({path, v.number});
      break;
    case Json::Kind::kObject:
      for (const auto& [name, member] : v.object) {
        flatten(member, path.empty() ? name : path + "." + name, out);
      }
      break;
    case Json::Kind::kArray:
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        flatten(v.array[i], path + "[" + element_key(v.array[i], i) + "]", out);
      }
      break;
    default:
      break;  // strings/bools/null carry no comparable metric
  }
}

/// 0 = not gating; +1 = gating, higher is better; -1 = gating, lower is
/// better (suffix written with a leading '-'). First matching suffix wins.
int gate_direction(const std::string& path, const DiffOptions& options) {
  for (const std::string& raw : options.gate_suffixes) {
    const bool lower_better = !raw.empty() && raw.front() == '-';
    const std::string_view suffix =
        lower_better ? std::string_view(raw).substr(1) : std::string_view(raw);
    if (suffix.empty() || path.size() < suffix.size()) continue;
    if (path.compare(path.size() - suffix.size(), suffix.size(), suffix) ==
        0) {
      return lower_better ? -1 : 1;
    }
  }
  return 0;
}

/// Provenance leaves (meta.cpus and friends) never carry a perf signal.
bool is_meta(const std::string& path) {
  return path.compare(0, 5, "meta.") == 0;
}

}  // namespace

DiffResult diff_json(const std::string& baseline_text,
                     const std::string& current_text,
                     const DiffOptions& options) {
  const Json baseline = Parser(baseline_text, "baseline").parse();
  const Json current = Parser(current_text, "current").parse();

  std::vector<Leaf> base_leaves;
  std::vector<Leaf> cur_leaves;
  flatten(baseline, "", base_leaves);
  flatten(current, "", cur_leaves);

  std::map<std::string, double> cur_by_path;
  for (const Leaf& leaf : cur_leaves) cur_by_path[leaf.path] = leaf.value;
  std::map<std::string, double> base_by_path;
  for (const Leaf& leaf : base_leaves) base_by_path[leaf.path] = leaf.value;

  DiffResult result;
  for (const Leaf& base : base_leaves) {
    if (is_meta(base.path)) continue;
    const auto it = cur_by_path.find(base.path);
    if (it == cur_by_path.end()) {
      result.notes.push_back("missing in current: " + base.path);
      continue;
    }
    DiffLine line;
    line.metric = base.path;
    line.baseline = base.value;
    line.current = it->second;
    line.delta_frac =
        base.value != 0.0
            ? (it->second - base.value) / std::fabs(base.value)
            : (it->second == 0.0 ? 0.0 : 1.0);
    const int direction = gate_direction(base.path, options);
    line.gating = direction != 0;
    line.regression = direction > 0
                          ? line.delta_frac < -options.threshold
                          : direction < 0 &&
                                line.delta_frac > options.threshold;
    if (line.regression) result.regressed = true;
    result.lines.push_back(std::move(line));
  }
  for (const Leaf& cur : cur_leaves) {
    if (is_meta(cur.path)) continue;
    if (base_by_path.find(cur.path) == base_by_path.end()) {
      result.notes.push_back("missing in baseline: " + cur.path);
    }
  }
  return result;
}

DiffResult diff_files(const std::string& baseline_path,
                      const std::string& current_path,
                      const DiffOptions& options) {
  const auto read_all = [](const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      throw std::invalid_argument("cannot read '" + path + "'");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  return diff_json(read_all(baseline_path), read_all(current_path), options);
}

void print_diff(std::FILE* out, const DiffResult& result,
                const DiffOptions& options) {
  std::size_t shown = 0;
  for (const DiffLine& line : result.lines) {
    const bool moved = std::fabs(line.delta_frac) > options.threshold;
    if (!line.gating && !moved) continue;
    const char* tag = line.regression ? "REGRESSION"
                      : line.gating    ? "ok"
                                       : "info";
    std::fprintf(out, "%-10s %-60s %14.3f -> %14.3f  (%+.1f%%)\n", tag,
                 line.metric.c_str(), line.baseline, line.current,
                 line.delta_frac * 100.0);
    ++shown;
  }
  if (shown == 0) std::fprintf(out, "no gating or moved metrics\n");
  for (const std::string& note : result.notes) {
    std::fprintf(out, "note: %s\n", note.c_str());
  }
  const std::size_t regressions = static_cast<std::size_t>(
      std::count_if(result.lines.begin(), result.lines.end(),
                    [](const DiffLine& l) { return l.regression; }));
  if (result.regressed) {
    std::fprintf(out, "verdict: %zu regression(s) past %.0f%% threshold%s\n",
                 regressions, options.threshold * 100.0,
                 options.report_only ? " [report-only]" : "");
  } else {
    std::fprintf(out, "verdict: no regressions past %.0f%% threshold\n",
                 options.threshold * 100.0);
  }
}

}  // namespace esg::perf
