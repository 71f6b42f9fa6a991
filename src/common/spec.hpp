// The one tokenizer behind every user-written spec (DESIGN.md §5, "Spec
// grammar"): --fault-spec, --elastic, --tenants, --forecast, the --arrivals
// bodies, the esg_sim/esg_tracegen flag values and the number fields of
// workload-trace files. The lexical rules live here once — separators,
// comments, CRLF, finite numbers, duplicate keys, `@file` — and each grammar
// keeps only its own shape and range rules.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace esg::spec {

/// Where a token came from. Every parse error reads
/// `<what>[ line <n>][ '<quote>']: <why>`, e.g.
/// `fault-spec clause 'crash:at=x': malformed number for 'at': 'x'`; a bare
/// flag value leaves everything empty and the error is just `<why>`.
struct Context {
  std::string_view what = {};
  std::string_view quote = {};
  std::size_t line = 0;

  /// Throws std::invalid_argument with the rendered prefix.
  [[noreturn]] void fail(const std::string& why) const;
};

/// Strips spaces, tabs and carriage returns from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on `sep` into trimmed pieces; empty pieces are kept (the caller
/// decides whether "1,,2" is an error) and "" yields one empty piece.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

/// One `;`- or newline-separated clause and its 1-based source line.
struct Clause {
  std::string_view text;
  std::size_t line = 1;
};

/// Splits spec text into trimmed, non-empty clauses. Blank lines and lines
/// whose first non-blank character is '#' are skipped whole.
[[nodiscard]] std::vector<Clause> clauses(std::string_view text);

/// The clauses re-joined with ';': a one-line quote of a whole spec (a file's
/// line breaks and comments would garble an error message).
[[nodiscard]] std::string join(const std::vector<Clause>& clauses);

/// Key/value pairs of one clause body; views into the body text.
using KeyValues = std::map<std::string_view, std::string_view>;

/// Parses a `,`-separated `key=value` list into `into` (empty items are
/// skipped). Rejects items without '=', empty keys, empty values and keys
/// already present.
[[nodiscard]] KeyValues key_values(std::string_view body, const Context& ctx,
                                   KeyValues into = {});

/// A whole finite number; "nan", "inf", overflow ("1e999") and trailing
/// garbage are rejected.
[[nodiscard]] double number(std::string_view v, std::string_view key,
                            const Context& ctx = {});

/// A whole non-negative integer below `limit` (fractions rejected).
[[nodiscard]] std::uint64_t count(std::string_view v, std::string_view key,
                                  const Context& ctx = {},
                                  std::uint64_t limit = 4294967295u);

/// on|off (also true|false and 1|0).
[[nodiscard]] bool on_off(std::string_view v, std::string_view key,
                          const Context& ctx = {});

/// `%g` rendering, the canonical number form of every to_string.
[[nodiscard]] std::string fmt(double v);

/// `@path` returns the file's text (throwing std::invalid_argument
/// "<what> file '<path>' is unreadable"); anything else is returned as is.
[[nodiscard]] std::string resolve(std::string_view arg, std::string_view what);

}  // namespace esg::spec
