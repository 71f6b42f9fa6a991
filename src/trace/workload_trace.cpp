#include "trace/workload_trace.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/spec.hpp"

namespace esg::trace {

namespace {

spec::Context at_line(std::size_t line_no) {
  return spec::Context{"workload-trace", {}, line_no};
}

[[noreturn]] void fail_line(std::size_t line_no, const std::string& why) {
  at_line(line_no).fail(why);
}

double parse_double(std::size_t line_no, std::string_view what,
                    std::string_view v) {
  return spec::number(v, what, at_line(line_no));
}

std::size_t parse_index(std::size_t line_no, std::string_view what,
                        std::string_view v, std::size_t max_exclusive) {
  return spec::count(v, what, at_line(line_no), max_exclusive);
}

/// Appends a data row, enforcing (bin, app, tenant) strictly-increasing
/// order (which also rejects duplicates) and count sanity.
void push_row(WorkloadTrace& trace, std::size_t line_no, std::size_t bin,
              std::size_t app, double count, std::size_t tenant) {
  if (app >= trace.app_count) {
    fail_line(line_no, "unknown app " + std::to_string(app) +
                           " (trace declares apps=" +
                           std::to_string(trace.app_count) + ")");
  }
  if (tenant >= trace.tenant_count) {
    fail_line(line_no, "unknown tenant " + std::to_string(tenant) +
                           " (trace declares tenants=" +
                           std::to_string(trace.tenant_count) + ")");
  }
  if (count < 0.0) {
    fail_line(line_no, "negative count");
  }
  if (!trace.rows.empty()) {
    const TraceBinRow& prev = trace.rows.back();
    if (bin < prev.bin ||
        (bin == prev.bin &&
         (app < prev.app || (app == prev.app && tenant <= prev.tenant)))) {
      fail_line(line_no,
                "rows must be sorted by (bin, app, tenant) without duplicates");
    }
  }
  trace.rows.push_back(TraceBinRow{bin, static_cast<std::uint32_t>(app), count,
                                   static_cast<std::uint32_t>(tenant)});
}

/// Splits `line` on commas into at most `max_fields` pieces; returns count.
std::size_t split_csv(std::string_view line, std::string_view* fields,
                      std::size_t max_fields) {
  std::size_t n = 0;
  std::size_t pos = 0;
  while (n < max_fields) {
    const std::size_t comma = line.find(',', pos);
    if (comma == std::string_view::npos) {
      fields[n++] = spec::trim(line.substr(pos));
      return n;
    }
    fields[n++] = spec::trim(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return max_fields + 1;  // too many fields
}

/// `key=value` field with a required key.
std::string_view keyed(std::size_t line_no, std::string_view field,
                       std::string_view key) {
  const std::size_t eq = field.find('=');
  if (eq == std::string_view::npos || spec::trim(field.substr(0, eq)) != key) {
    fail_line(line_no, "expected '" + std::string(key) + "=<value>', got '" +
                           std::string(field) + "'");
  }
  return spec::trim(field.substr(eq + 1));
}

void parse_csv_header(WorkloadTrace& trace, std::size_t line_no,
                      std::string_view line) {
  std::string_view f[5];
  const std::size_t n = split_csv(line, f, 5);
  if ((n != 4 && n != 5) || f[0] != "esg-trace" || f[1] != "v1") {
    fail_line(line_no,
              "expected header 'esg-trace,v1,bin_ms=<ms>,apps=<n>"
              "[,tenants=<t>]', got '" +
                  std::string(line) + "'");
  }
  trace.bin_ms = parse_double(line_no, "bin_ms", keyed(line_no, f[2], "bin_ms"));
  if (trace.bin_ms <= 0.0) fail_line(line_no, "bin_ms must be positive");
  trace.app_count =
      parse_index(line_no, "apps", keyed(line_no, f[3], "apps"), kMaxTraceApps);
  if (trace.app_count == 0) fail_line(line_no, "apps must be positive");
  if (n == 5) {
    trace.tenant_count = parse_index(
        line_no, "tenants", keyed(line_no, f[4], "tenants"), kMaxTraceTenants);
    if (trace.tenant_count < 2) {
      fail_line(line_no,
                "tenants must be >= 2 (omit the field for a single tenant)");
    }
  }
}

// --- minimal strict flat-JSON-object reader (one object per line) ---------

struct JsonField {
  std::string key;
  std::string value;  ///< raw number text, or unquoted string content
  bool is_string = false;
};

/// Parses `{"k":v,...}` with string keys and number-or-string values; no
/// nesting, no escapes (trace content never needs them), nothing after '}'.
std::vector<JsonField> parse_flat_object(std::size_t line_no,
                                         std::string_view line) {
  std::vector<JsonField> fields;
  std::size_t pos = 0;
  const auto skip_ws = [&] {
    while (pos < line.size() &&
           (line[pos] == ' ' || line[pos] == '\t')) {
      ++pos;
    }
  };
  const auto expect = [&](char c) {
    if (pos >= line.size() || line[pos] != c) {
      fail_line(line_no, std::string("malformed JSON: expected '") + c + "'");
    }
    ++pos;
  };
  const auto quoted = [&]() -> std::string {
    expect('"');
    const std::size_t start = pos;
    while (pos < line.size() && line[pos] != '"') {
      if (line[pos] == '\\') fail_line(line_no, "escapes are not supported");
      ++pos;
    }
    if (pos >= line.size()) fail_line(line_no, "unterminated string");
    return std::string(line.substr(start, pos++ - start));
  };

  skip_ws();
  expect('{');
  skip_ws();
  if (pos < line.size() && line[pos] == '}') {
    fail_line(line_no, "empty JSON object");
  }
  for (;;) {
    skip_ws();
    JsonField field;
    field.key = quoted();
    skip_ws();
    expect(':');
    skip_ws();
    if (pos < line.size() && line[pos] == '"') {
      field.value = quoted();
      field.is_string = true;
    } else {
      const std::size_t start = pos;
      while (pos < line.size() && line[pos] != ',' && line[pos] != '}' &&
             line[pos] != ' ' && line[pos] != '\t') {
        ++pos;
      }
      field.value = std::string(line.substr(start, pos - start));
      if (field.value.empty()) fail_line(line_no, "missing value");
    }
    for (const JsonField& f : fields) {
      if (f.key == field.key) {
        fail_line(line_no, "duplicate key '" + field.key + "'");
      }
    }
    fields.push_back(std::move(field));
    skip_ws();
    if (pos < line.size() && line[pos] == ',') {
      ++pos;
      continue;
    }
    expect('}');
    break;
  }
  skip_ws();
  if (pos != line.size()) fail_line(line_no, "trailing garbage after object");
  return fields;
}

const JsonField& json_get(std::size_t line_no,
                          const std::vector<JsonField>& fields,
                          std::string_view key, bool string_valued) {
  for (const JsonField& f : fields) {
    if (f.key == key) {
      if (f.is_string != string_valued) {
        fail_line(line_no, "key '" + std::string(key) + "' has the wrong type");
      }
      return f;
    }
  }
  fail_line(line_no, "missing key '" + std::string(key) + "'");
}

void reject_unknown_keys(std::size_t line_no,
                         const std::vector<JsonField>& fields,
                         std::initializer_list<std::string_view> known) {
  for (const JsonField& f : fields) {
    bool ok = false;
    for (const std::string_view k : known) ok = ok || f.key == k;
    if (!ok) fail_line(line_no, "unknown key '" + f.key + "'");
  }
}

/// Shortest representation that round-trips through strtod; integral values
/// print as plain integers.
std::string fmt_double(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace

std::size_t WorkloadTrace::bin_count() const {
  return rows.empty() ? 0 : rows.back().bin + 1;
}

TimeMs WorkloadTrace::duration_ms() const {
  return static_cast<double>(bin_count()) * bin_ms;
}

double WorkloadTrace::total_count() const {
  double total = 0.0;
  for (const TraceBinRow& row : rows) total += row.count;
  return total;
}

std::vector<double> WorkloadTrace::bin_totals() const {
  std::vector<double> totals(bin_count(), 0.0);
  for (const TraceBinRow& row : rows) totals[row.bin] += row.count;
  return totals;
}

void validate(const WorkloadTrace& trace) {
  const auto fail = [](const std::string& why) {
    throw std::invalid_argument("workload-trace: " + why);
  };
  if (!std::isfinite(trace.bin_ms) || trace.bin_ms <= 0.0) {
    fail("bin_ms must be positive and finite");
  }
  if (trace.app_count == 0 || trace.app_count > kMaxTraceApps) {
    fail("app count out of range");
  }
  if (trace.tenant_count == 0 || trace.tenant_count > kMaxTraceTenants) {
    fail("tenant count out of range");
  }
  const TraceBinRow* prev = nullptr;
  for (const TraceBinRow& row : trace.rows) {
    if (row.bin >= kMaxTraceBins) fail("bin index out of range");
    if (row.app >= trace.app_count) {
      fail("unknown app " + std::to_string(row.app));
    }
    if (row.tenant >= trace.tenant_count) {
      fail("unknown tenant " + std::to_string(row.tenant));
    }
    if (!std::isfinite(row.count) || row.count < 0.0) {
      fail("counts must be finite and non-negative");
    }
    if (prev != nullptr &&
        (row.bin < prev->bin ||
         (row.bin == prev->bin &&
          (row.app < prev->app ||
           (row.app == prev->app && row.tenant <= prev->tenant))))) {
      fail("rows must be sorted by (bin, app, tenant) without duplicates");
    }
    prev = &row;
  }
}

WorkloadTrace parse_trace_csv(std::istream& in) {
  WorkloadTrace trace;
  bool saw_header = false;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string_view line = spec::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    if (!saw_header) {
      parse_csv_header(trace, line_no, line);
      saw_header = true;
      continue;
    }
    const bool tenanted = trace.tenant_count > 1;
    std::string_view f[4];
    const std::size_t want = tenanted ? 4 : 3;
    if (split_csv(line, f, 4) != want) {
      fail_line(line_no, std::string("expected '") +
                             (tenanted ? "bin,app,count,tenant"
                                       : "bin,app,count") +
                             "', got '" + std::string(line) + "'");
    }
    const std::size_t bin = parse_index(line_no, "bin", f[0], kMaxTraceBins);
    const std::size_t app = parse_index(line_no, "app", f[1], kMaxTraceApps);
    const double count = parse_double(line_no, "count", f[2]);
    const std::size_t tenant =
        tenanted ? parse_index(line_no, "tenant", f[3], kMaxTraceTenants) : 0;
    push_row(trace, line_no, bin, app, count, tenant);
  }
  if (!saw_header) {
    throw std::invalid_argument(
        "workload-trace: missing 'esg-trace,v1,...' header");
  }
  validate(trace);
  return trace;
}

WorkloadTrace parse_trace_jsonl(std::istream& in) {
  WorkloadTrace trace;
  bool saw_header = false;
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(in, raw)) {
    ++line_no;
    const std::string_view line = spec::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    const std::vector<JsonField> fields = parse_flat_object(line_no, line);
    if (!saw_header) {
      reject_unknown_keys(line_no, fields,
                          {"schema", "bin_ms", "apps", "tenants"});
      const JsonField& schema = json_get(line_no, fields, "schema", true);
      if (schema.value != kTraceSchemaV1) {
        fail_line(line_no, "unsupported schema '" + schema.value + "'");
      }
      trace.bin_ms = parse_double(
          line_no, "bin_ms", json_get(line_no, fields, "bin_ms", false).value);
      if (trace.bin_ms <= 0.0) fail_line(line_no, "bin_ms must be positive");
      trace.app_count =
          parse_index(line_no, "apps",
                      json_get(line_no, fields, "apps", false).value,
                      kMaxTraceApps);
      if (trace.app_count == 0) fail_line(line_no, "apps must be positive");
      for (const JsonField& f : fields) {
        if (f.key != "tenants") continue;
        if (f.is_string) fail_line(line_no, "key 'tenants' has the wrong type");
        trace.tenant_count =
            parse_index(line_no, "tenants", f.value, kMaxTraceTenants);
        if (trace.tenant_count < 2) {
          fail_line(line_no,
                    "tenants must be >= 2 (omit the key for a single tenant)");
        }
      }
      saw_header = true;
      continue;
    }
    const bool tenanted = trace.tenant_count > 1;
    if (tenanted) {
      reject_unknown_keys(line_no, fields, {"bin", "app", "count", "tenant"});
    } else {
      reject_unknown_keys(line_no, fields, {"bin", "app", "count"});
    }
    const std::size_t bin =
        parse_index(line_no, "bin", json_get(line_no, fields, "bin", false).value,
                    kMaxTraceBins);
    const std::size_t app =
        parse_index(line_no, "app", json_get(line_no, fields, "app", false).value,
                    kMaxTraceApps);
    const double count = parse_double(
        line_no, "count", json_get(line_no, fields, "count", false).value);
    const std::size_t tenant =
        tenanted ? parse_index(line_no, "tenant",
                               json_get(line_no, fields, "tenant", false).value,
                               kMaxTraceTenants)
                 : 0;
    push_row(trace, line_no, bin, app, count, tenant);
  }
  if (!saw_header) {
    throw std::invalid_argument(
        "workload-trace: missing JSONL schema header line");
  }
  validate(trace);
  return trace;
}

WorkloadTrace load_workload_trace(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument("workload-trace file '" + path +
                                "' is unreadable");
  }
  // Sniff the encoding: the JSONL header line starts with '{'.
  const int first = file.peek();
  if (first == '{') return parse_trace_jsonl(file);
  return parse_trace_csv(file);
}

void write_trace_csv(const WorkloadTrace& trace, std::ostream& out) {
  validate(trace);
  const bool tenanted = trace.tenant_count > 1;
  out << "# ESG workload trace: per-app invocation counts per time bin.\n";
  out << "esg-trace,v1,bin_ms=" << fmt_double(trace.bin_ms)
      << ",apps=" << trace.app_count;
  if (tenanted) out << ",tenants=" << trace.tenant_count;
  out << "\n";
  for (const TraceBinRow& row : trace.rows) {
    out << row.bin << ',' << row.app << ',' << fmt_double(row.count);
    if (tenanted) out << ',' << row.tenant;
    out << "\n";
  }
}

void write_trace_jsonl(const WorkloadTrace& trace, std::ostream& out) {
  validate(trace);
  const bool tenanted = trace.tenant_count > 1;
  out << "{\"schema\":\"" << kTraceSchemaV1
      << "\",\"bin_ms\":" << fmt_double(trace.bin_ms)
      << ",\"apps\":" << trace.app_count;
  if (tenanted) out << ",\"tenants\":" << trace.tenant_count;
  out << "}\n";
  for (const TraceBinRow& row : trace.rows) {
    out << "{\"bin\":" << row.bin << ",\"app\":" << row.app
        << ",\"count\":" << fmt_double(row.count);
    if (tenanted) out << ",\"tenant\":" << row.tenant;
    out << "}\n";
  }
}

}  // namespace esg::trace
