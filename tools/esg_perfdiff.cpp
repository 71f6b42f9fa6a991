// esg_perfdiff — compare two perf/BENCH JSON artefacts and flag throughput
// regressions. Exit codes: 0 no regression (or --report-only), 1 regression
// past the threshold, 2 usage/parse error.
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/build_info.hpp"
#include "perf/perfdiff.hpp"

namespace {

constexpr const char* kUsage =
    R"(esg_perfdiff — diff two perf/BENCH JSON artefacts for regressions

usage: esg_perfdiff [flags] <baseline.json> <current.json>

  --threshold <frac>   allowed fractional move on gating metrics before
                       a regression is declared (default 0.10 = 10%)
  --gate-suffix <sfx>  also gate metrics ending in <sfx> (repeatable;
                       appended to the default *_per_sec). Suffixes are
                       higher-is-better; prefix with '-' for lower-is-
                       better fields (e.g. --gate-suffix -cold_start_rate
                       fails when the rate rises past the threshold)
  --report-only        print the comparison but always exit 0 on success
                       (for CI hosts that differ from the baseline's)
  --version            print one provenance line and exit
  --help

By default only *_per_sec metrics gate the verdict (higher is better);
counters and wall times are reported informationally when they move past
the threshold. --gate-suffix promotes more fields into the verdict.
Rows are matched by their string fields (scheduler, ...) plus rate_scale and
seed, so reordered baselines still line up.

exit codes: 0 no regression; 1 regression past threshold; 2 usage or
malformed/unreadable JSON.
)";

double parse_threshold(const char* value) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == value || *end != '\0' || !(v >= 0.0) || v >= 1.0) {
    throw std::invalid_argument(
        "--threshold must be a fraction in [0, 1), got '" +
        std::string(value) + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace esg;
  perf::DiffOptions options;
  std::vector<std::string> files;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        std::printf("%s", kUsage);
        return 0;
      }
      if (arg == "--version") {
        std::printf("%s\n", common::version_line("esg_perfdiff").c_str());
        return 0;
      }
      if (arg == "--report-only") {
        options.report_only = true;
      } else if (arg == "--threshold") {
        if (i + 1 >= argc) {
          throw std::invalid_argument("missing value for --threshold");
        }
        options.threshold = parse_threshold(argv[++i]);
      } else if (arg == "--gate-suffix") {
        if (i + 1 >= argc) {
          throw std::invalid_argument("missing value for --gate-suffix");
        }
        const std::string suffix = argv[++i];
        if (suffix.empty() || suffix == "-") {
          throw std::invalid_argument("--gate-suffix must not be empty");
        }
        options.gate_suffixes.push_back(suffix);
      } else if (arg.rfind("--", 0) == 0) {
        throw std::invalid_argument("unknown flag '" + std::string(arg) +
                                    "' (see --help)");
      } else {
        files.emplace_back(arg);
      }
    }
    if (files.size() != 2) {
      throw std::invalid_argument("expected exactly two JSON files, got " +
                                  std::to_string(files.size()));
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "esg_perfdiff: %s\n%s", e.what(), kUsage);
    return 2;
  }

  try {
    const perf::DiffResult result =
        perf::diff_files(files[0], files[1], options);
    perf::print_diff(stdout, result, options);
    if (result.regressed && !options.report_only) return 1;
    return 0;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "esg_perfdiff: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esg_perfdiff: %s\n", e.what());
    return 1;
  }
}
