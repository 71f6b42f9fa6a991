// perfbench_runner: one replay of one benchmark workload per process, so the
// peak resident set it reports belongs to that replay alone. run.py drives
// it and aggregates; this program prints exactly one JSON object on stdout.
//
//   perfbench_runner --workload NAME --seed N --mode replay|traced
//                    --work-dir DIR [--size F]
//   perfbench_runner --calibrate     fixed CPU loop, prints its host time
//   perfbench_runner --build-info    commit, compiler and build type
//
// replay: the end-to-end run. Set-up (trace generation and parsing, CLI
//   parsing, profile tables, app DAGs, ESG scheduler construction, arrival
//   generation) is timed first, then the replay itself goes through
//   exp::run_scenario.
// traced: the same inputs with every layer's public calls timed from here.
//   Workloads with tracing off replay through a mirror of run_scenario's
//   wiring with a TimedScheduler around the strategy; the observed workload
//   goes through exp::run_scenario with every sink wrapped in a TimedSink.
//   Both print the simulated outputs, which run.py compares with the
//   untraced replay of the same seed.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "common/build_info.hpp"
#include "common/rng.hpp"
#include "core/esg_scheduler.hpp"
#include "exp/cli.hpp"
#include "exp/scenario.hpp"
#include "obs/analysis/attribution.hpp"
#include "obs/analysis/dataset.hpp"
#include "obs/recorder.hpp"
#include "obs/sinks.hpp"
#include "perf/counters.hpp"
#include "platform/controller.hpp"
#include "profile/profile_table.hpp"
#include "sim/simulator.hpp"
#include "timed.hpp"
#include "trace/workload_trace.hpp"
#include "workload/applications.hpp"
#include "workloads.hpp"

namespace {

using namespace esg;
using perfbench::Clock;
using perfbench::seconds_since;

/// Ordered name -> number pairs, printed as one JSON object.
class JsonFields {
 public:
  void add(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(value) ? value : 0.0);
    fields_.emplace_back(name, buf);
  }
  void add_count(const std::string& name, std::uint64_t value) {
    fields_.emplace_back(name, std::to_string(value));
  }
  void add_string(const std::string& name, const std::string& value) {
    fields_.emplace_back(name, "\"" + value + "\"");
  }
  void add_object(const std::string& name, const JsonFields& object) {
    fields_.emplace_back(name, object.str());
  }
  void add_array(const std::string& name, const std::vector<double>& values) {
    std::string out = "[";
    char buf[32];
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i > 0 ? "," : "", values[i]);
      out += buf;
    }
    fields_.emplace_back(name, out + "]");
  }
  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
template <typename T>
double percentile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<long>(index),
                   values.end());
  return static_cast<double>(values[index]);
}

std::uint64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

// ---------------------------------------------------------------- inputs --

struct Inputs {
  std::string trace_path;  ///< empty for synthetic arrivals
  exp::Scenario scenario;
};

/// Writes the workload's trace (trace workloads) and parses the workload's
/// esg_sim flags into a scenario; parse_cli loads the trace file eagerly.
Inputs prepare(const perfbench::Workload& workload, std::uint64_t seed,
               const std::string& work_dir) {
  Inputs in;
  std::vector<std::string> args = workload.flags;
  if (workload.trace_shape) {
    const trace::WorkloadTrace generated = trace::generate_azure_shaped(
        *workload.trace_shape,
        RngFactory(perfbench::kTraceShapeSeed).stream("perfbench-trace"));
    std::filesystem::create_directories(work_dir);
    in.trace_path = work_dir + "/" + workload.name + ".csv";
    std::ofstream file(in.trace_path);
    trace::write_trace_csv(generated, file);
    file.close();
    if (!file) throw std::runtime_error("cannot write " + in.trace_path);
    char scale[32];
    std::snprintf(scale, sizeof scale, "%g", workload.rate_scale);
    args.push_back("--arrivals");
    args.push_back("trace:@" + in.trace_path + ",rate-scale=" + scale);
  }
  std::vector<const char*> argv;
  argv.reserve(args.size());
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  in.scenario = exp::parse_cli(argv).scenario;
  in.scenario.seed = seed;
  return in;
}

std::vector<AppId> app_ids_of(const std::vector<workload::AppDag>& apps) {
  std::vector<AppId> ids;
  ids.reserve(apps.size());
  for (const auto& app : apps) ids.push_back(app.id());
  return ids;
}

std::vector<workload::Arrival> generate_arrivals(
    const exp::Scenario& scenario, const std::vector<workload::AppDag>& apps) {
  return exp::make_arrival_source(scenario, app_ids_of(apps),
                                  RngFactory(scenario.seed))
      ->generate_until(scenario.horizon_ms);
}

// ------------------------------------------------------- simulated output --

/// Highest minus lowest per-tenant SLO hit rate (0 with one tenant).
double tenant_hit_rate_spread(const metrics::RunMetrics& m) {
  std::map<std::uint32_t, std::pair<double, double>> by_tenant;  // hits, all
  for (const auto& c : m.completions) {
    auto& tenant = by_tenant[c.tenant];
    if (c.hit) tenant.first += 1.0;
    tenant.second += 1.0;
  }
  double lo = 1.0, hi = 0.0;
  for (const auto& [tenant, counts] : by_tenant) {
    lo = std::min(lo, counts.first / counts.second);
    hi = std::max(hi, counts.first / counts.second);
  }
  return by_tenant.size() > 1 ? hi - lo : 0.0;
}

/// Everything a replay decides, in simulated terms. Two replays of one seed
/// must print identical values; run.py compares them field by field.
JsonFields simulated_output(const metrics::RunMetrics& m,
                            const perf::Counters& counters, TimeMs end_ms,
                            std::size_t window_requests,
                            std::uint64_t sink_bytes) {
  JsonFields sim;
  std::size_t completed = 0, hits = 0, shed = 0, aborted = 0;
  std::vector<double> latencies;
  std::uint64_t digest = 1469598103934665603ull;  // FNV-1a over completions
  const auto mix = [&digest](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (word >> (8 * i)) & 0xFFu;
      digest *= 1099511628211ull;
    }
  };
  for (const auto& c : m.completions) {
    if (c.shed) {
      ++shed;
    } else if (c.failed) {
      ++aborted;
    } else {
      ++completed;
      latencies.push_back(c.latency_ms);
    }
    if (c.hit) ++hits;
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c.latency_ms, sizeof bits);
    mix(c.request.get());
    mix(c.app.get());
    mix(c.tenant);
    mix(bits);
    mix((c.hit ? 1u : 0u) | (c.failed ? 2u : 0u) | (c.shed ? 4u : 0u));
  }
  const auto measured = static_cast<double>(m.completions.size());
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);

  sim.add_count("window_requests", window_requests);
  sim.add_count("measured", m.completions.size());
  sim.add_count("completed", completed);
  sim.add_count("hits", hits);
  sim.add_count("shed", shed);
  sim.add_count("aborted", aborted);
  sim.add("slo_hit_rate", share(static_cast<double>(hits), measured));
  sim.add("total_cost_usd", m.total_cost);
  sim.add("latency_p50_ms", percentile(latencies, 0.50));
  sim.add("latency_p99_ms", percentile(latencies, 0.99));
  sim.add_count("latency_samples", latencies.size());
  sim.add("tenant_hit_rate_spread", tenant_hit_rate_spread(m));
  sim.add("simulated_end_ms", end_ms);
  sim.add_string("completions_digest", hex);
  for (const perf::CounterField& field : perf::kCounterFields) {
    sim.add_count(field.name, counters.*field.member);
  }
  sim.add_count("tasks", m.tasks);
  sim.add_count("cold_starts", m.cold_starts);
  sim.add_count("warm_starts", m.warm_starts);
  sim.add_count("local_inputs", m.local_inputs);
  sim.add_count("remote_inputs", m.remote_inputs);
  sim.add_count("forced_min_dispatches", m.forced_min_dispatches);
  sim.add_count("task_failures", m.task_failures);
  sim.add_count("retries", m.retries);
  sim.add_count("retries_exhausted", m.retries_exhausted);
  sim.add_count("invoker_crashes", m.invoker_crashes);
  sim.add_count("shed_requests", m.shed_requests);
  sim.add_count("spot_reclaims", m.spot_reclaims);
  sim.add_count("scale_outs", m.scale_outs);
  sim.add_count("scale_ins", m.scale_ins);
  sim.add_count("sink_bytes", sink_bytes);
  return sim;
}

/// Raw facts for run.py's conservation check: every measured arrival must
/// end as exactly one completion record, completed, shed or aborted.
JsonFields conservation(const metrics::RunMetrics& m,
                        const std::vector<workload::Arrival>& arrivals,
                        TimeMs warmup_ms) {
  std::size_t measured_arrivals = 0;
  for (const auto& a : arrivals) {
    if (a.time_ms >= warmup_ms) ++measured_arrivals;
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(m.completions.size());
  std::size_t completed = 0, shed = 0, aborted = 0, bad_latency = 0;
  for (const auto& c : m.completions) {
    ids.push_back(c.request.get());
    if (c.shed) {
      ++shed;
    } else if (c.failed) {
      ++aborted;
    } else {
      ++completed;
      if (!std::isfinite(c.latency_ms) || c.latency_ms <= 0.0) ++bad_latency;
    }
  }
  std::sort(ids.begin(), ids.end());
  const auto unique = static_cast<std::size_t>(
      std::unique(ids.begin(), ids.end()) - ids.begin());
  JsonFields out;
  out.add_count("measured_arrivals", measured_arrivals);
  out.add_count("records", m.completions.size());
  out.add_count("unique_requests", unique);
  out.add_count("completed", completed);
  out.add_count("shed", shed);
  out.add_count("aborted", aborted);
  out.add_count("bad_latency", bad_latency);
  out.add_count("shed_counter", m.shed_requests);
  out.add_count("aborted_counter", m.retries_exhausted);
  return out;
}

// ----------------------------------------------------- observed sinks --

/// A stream buffer that counts and drops what is written to it, so the
/// observed workload formats its trace and stats without timing the disk.
class DiscardBuffer final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) ++bytes_;
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char*, std::streamsize count) override {
    bytes_ += static_cast<std::uint64_t>(count);
    return count;
  }

 private:
  std::uint64_t bytes_ = 0;
};

/// The observed workload's sinks: Chrome trace and stats JSONL into a
/// discarding stream, plus the attribution dataset. With `timed` set, each
/// sink is wrapped in a TimedSink.
struct ObservedSinks {
  DiscardBuffer buffer;
  std::ostream stream{&buffer};
  obs::TraceRecorder recorder;
  obs::analysis::AnalysisSink* analysis = nullptr;
  std::vector<perfbench::SinkStats> stats;

  explicit ObservedSinks(bool timed) {
    std::vector<std::unique_ptr<obs::TraceSink>> sinks;
    sinks.push_back(std::make_unique<obs::ChromeTraceSink>(stream));
    sinks.push_back(std::make_unique<obs::JsonlStatsSink>(stream));
    auto analysis_sink = std::make_unique<obs::analysis::AnalysisSink>();
    analysis = analysis_sink.get();
    sinks.push_back(std::move(analysis_sink));
    stats.resize(timed ? sinks.size() : 0);
    for (std::size_t i = 0; i < sinks.size(); ++i) {
      if (timed) {
        recorder.add_sink(std::make_unique<perfbench::TimedSink>(
            std::move(sinks[i]), stats[i]));
      } else {
        recorder.add_sink(std::move(sinks[i]));
      }
    }
  }

  /// Builds the attribution report and writes it to the discarding stream,
  /// as `esg_sim --report-out` does after a run.
  void write_report() {
    const obs::analysis::AttributionReport report =
        obs::analysis::build_report(analysis->dataset());
    obs::analysis::write_report_json(report, stream);
    stream.flush();
  }
};

// --------------------------------------------------------------- modes --

int run_replay(const perfbench::Workload& workload, std::uint64_t seed,
               const std::string& work_dir) {
  const auto setup_start = Clock::now();
  const Inputs in = prepare(workload, seed, work_dir);
  const profile::ProfileSet profiles =
      profile::ProfileSet::builtin(in.scenario.config_space);
  const std::vector<workload::AppDag> apps = workload::builtin_applications();
  const core::EsgScheduler scheduler(apps, profiles, in.scenario.esg);
  const std::vector<workload::Arrival> arrivals =
      generate_arrivals(in.scenario, apps);
  const double setup_s = seconds_since(setup_start);

  std::unique_ptr<ObservedSinks> sinks;
  if (workload.observed) sinks = std::make_unique<ObservedSinks>(false);
  const auto replay_start = Clock::now();
  const exp::RunOutput out = exp::run_scenario(
      in.scenario, sinks != nullptr ? &sinks->recorder : nullptr);
  if (sinks != nullptr) sinks->write_report();
  const double replay_s = seconds_since(replay_start);

  JsonFields result;
  result.add_string("mode", "replay");
  result.add("setup_s", setup_s);
  result.add("replay_s", replay_s);
  result.add_count("peak_rss_kib", peak_rss_kib());
  result.add_object("sim", simulated_output(
                               out.metrics, out.counters, out.simulated_end_ms,
                               arrivals.size(),
                               sinks != nullptr ? sinks->buffer.bytes() : 0));
  result.add_object("conservation", conservation(out.metrics, arrivals,
                                                 in.scenario.warmup_ms));
  // Completed-request latencies, so that run.py can pool percentiles over
  // the replays of a run.
  std::vector<double> latencies;
  for (const auto& c : out.metrics.completions) {
    if (!c.shed && !c.failed) latencies.push_back(c.latency_ms);
  }
  result.add_array("latencies_ms", latencies);
  std::printf("%s\n", result.str().c_str());
  return 0;
}

/// Host time per event of a bare default-engine Simulator running `events`
/// no-op actions in the hold model: a fixed population of pending events,
/// each fired event replaced by one at an exponentially distributed delay.
double engine_ns_per_event(std::uint64_t events, std::uint64_t seed) {
  constexpr std::size_t kPending = 1024;
  RngStream rng = RngFactory(seed).stream("perfbench-engine");
  sim::Simulator sim;
  const auto noop = [] {};
  for (std::size_t i = 0; i < kPending; ++i) {
    sim.schedule_at(rng.uniform(0.0, 10.0), noop);
  }
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < events; ++i) {
    sim.step();
    sim.schedule_in(-10.0 * std::log(1.0 - rng.uniform()), noop);
  }
  return events > 0 ? seconds_since(start) * 1e9 / static_cast<double>(events)
                    : 0.0;
}

int run_traced(const perfbench::Workload& workload, std::uint64_t seed,
               const std::string& work_dir) {
  const Inputs in = prepare(workload, seed, work_dir);
  const exp::Scenario& scenario = in.scenario;

  // Set-up calls, each timed on its own.
  double load_s = 0.0;
  if (!in.trace_path.empty()) {
    const auto start = Clock::now();
    const trace::WorkloadTrace loaded =
        trace::load_workload_trace(in.trace_path);
    load_s = seconds_since(start);
    if (loaded.rows.empty()) throw std::runtime_error("empty trace");
  }
  auto start = Clock::now();
  const profile::ProfileSet timed_profiles =
      profile::ProfileSet::builtin(scenario.config_space);
  const double profile_s = seconds_since(start);
  const std::vector<workload::AppDag> apps = workload::builtin_applications();
  start = Clock::now();
  const std::vector<workload::Arrival> arrivals =
      generate_arrivals(scenario, apps);
  const double arrivals_s = seconds_since(start);

  perfbench::SchedulerStats sched;
  std::unique_ptr<ObservedSinks> sinks;
  double run_s = 0.0, report_s = 0.0;
  metrics::RunMetrics run_metrics;
  perf::Counters counters;
  TimeMs end_ms = 0.0;
  const auto replay_start = Clock::now();
  if (workload.observed) {
    // run_scenario builds this workload's fault, elastic, forecast and
    // tenant subsystems itself; only the sinks are timed from here.
    sinks = std::make_unique<ObservedSinks>(true);
    const auto run_start = Clock::now();
    exp::RunOutput out = exp::run_scenario(scenario, &sinks->recorder);
    run_s = seconds_since(run_start);
    const auto report_start = Clock::now();
    sinks->write_report();
    report_s = seconds_since(report_start);
    run_metrics = std::move(out.metrics);
    counters = out.counters;
    end_ms = out.simulated_end_ms;
  } else {
    // Mirrors run_scenario's wiring for a static single-tenant fleet with
    // tracing off, so that the strategy can be wrapped.
    const RngFactory rng(scenario.seed);
    const profile::ProfileSet run_profiles =
        profile::ProfileSet::builtin(scenario.config_space);
    const std::vector<workload::AppDag> run_apps =
        workload::builtin_applications();
    sim::Simulator sim;
    cluster::Cluster cluster(scenario.nodes);
    core::EsgScheduler esg(run_apps, run_profiles, scenario.esg);
    perfbench::TimedScheduler timed(esg, sched);
    platform::ControllerOptions options = scenario.controller;
    options.metrics_warmup_ms = scenario.warmup_ms;
    platform::Controller controller(sim, cluster, run_profiles, run_apps,
                                    scenario.slo, timed, rng, options);
    const auto source =
        exp::make_arrival_source(scenario, app_ids_of(run_apps), rng);
    controller.inject(source->generate_until(scenario.horizon_ms));
    const auto run_start = Clock::now();
    controller.run_to_completion();
    run_s = seconds_since(run_start);
    run_metrics = controller.metrics();
    counters = sim.counters();
    counters.merge(controller.perf_counters());
    end_ms = sim.now();
  }
  const double replay_s = seconds_since(replay_start);

  double sink_s = 0.0;
  std::uint64_t spans = 0;
  if (sinks != nullptr) {
    for (const auto& s : sinks->stats) sink_s += s.seconds;
    spans = sinks->stats.front().spans;
  }
  const double wrapped_s = sched.plan_s + sched.place_s + sched.on_request_s +
                           sink_s;
  const auto& m = run_metrics;
  const auto events = static_cast<double>(counters.events_fired);
  JsonFields layers;

  layers.add_count("sim.events", counters.events_fired);
  layers.add("sim.events_per_req",
             share(events, static_cast<double>(arrivals.size())));
  layers.add("sim.cancelled_share",
             share(static_cast<double>(counters.events_cancelled),
                   static_cast<double>(counters.events_scheduled)));
  layers.add("sim.ns_per_event",
             engine_ns_per_event(counters.events_fired, seed));
  layers.add_count("platform.scan_rounds", counters.scan_rounds);
  layers.add_count("platform.queue_visits", counters.queue_visits);
  layers.add_count("platform.plans", counters.plans);
  layers.add_count("platform.replans", counters.replans);
  layers.add_count("platform.dispatches", counters.dispatches);
  layers.add("platform.visits_per_dispatch",
             share(static_cast<double>(counters.queue_visits),
                   static_cast<double>(counters.dispatches)));
  layers.add("platform.dispatches_per_plan",
             share(static_cast<double>(counters.dispatches),
                   static_cast<double>(counters.plans)));
  layers.add("platform.self_s", std::max(0.0, run_s - wrapped_s));
  layers.add_count("platform.forced_min_dispatches", m.forced_min_dispatches);
  layers.add_count("core.plan_calls", sched.plans);
  layers.add("core.plan_s", sched.plan_s);
  layers.add("core.plan_us_p50", percentile(sched.plan_us, 0.50));
  layers.add("core.plan_us_p99", percentile(sched.plan_us, 0.99));
  layers.add("core.defer_share", share(static_cast<double>(sched.defers),
                                       static_cast<double>(sched.plans)));
  layers.add_count("cluster.place_calls", sched.places);
  layers.add("cluster.place_s", sched.place_s);
  layers.add("cluster.place_fail_share",
             share(static_cast<double>(sched.place_failures),
                   static_cast<double>(sched.places)));
  layers.add("cluster.warm_hit_share",
             share(static_cast<double>(counters.warm_hits),
                   static_cast<double>(counters.warm_hits +
                                       counters.warm_misses)));
  layers.add_count("cluster.cold_starts", m.cold_starts);
  layers.add("cluster.local_input_share",
             share(static_cast<double>(m.local_inputs),
                   static_cast<double>(m.local_inputs + m.remote_inputs)));
  layers.add_count("prewarm.issued", counters.prewarms_issued);
  layers.add_count("prewarm.skipped", counters.prewarms_skipped);
  layers.add_count("forecast.issued", counters.forecasts_issued);
  layers.add_count("forecast.consumed", counters.forecasts_consumed);
  layers.add_count("tenant.vt_updates", counters.vt_updates);
  layers.add("tenant.hit_rate_spread", tenant_hit_rate_spread(m));
  layers.add_count("fault.task_failures", m.task_failures);
  layers.add_count("fault.retries", m.retries);
  layers.add_count("fault.aborted", m.retries_exhausted);
  layers.add_count("elastic.shed", m.shed_requests);
  layers.add_count("elastic.scale_events", m.scale_outs + m.scale_ins);
  layers.add_count("elastic.spot_reclaims", m.spot_reclaims);
  layers.add("obs.sink_s", sink_s);
  layers.add_count("obs.spans", spans);
  layers.add("obs.report_s", report_s);
  layers.add("trace.load_s", load_s);
  layers.add("trace.arrivals_gen_s", arrivals_s);
  layers.add("profile.build_s", profile_s);

  JsonFields result;
  result.add_string("mode", "traced");
  result.add("replay_s", replay_s);
  result.add_object("sim", simulated_output(
                               m, counters, end_ms, arrivals.size(),
                               sinks != nullptr ? sinks->buffer.bytes() : 0));
  result.add_object("conservation",
                    conservation(m, arrivals, scenario.warmup_ms));
  result.add_object("layers", layers);
  std::printf("%s\n", result.str().c_str());
  return 0;
}

/// A fixed integer loop whose host time tracks the CPU's single-core speed.
int run_calibrate() {
  const auto start = Clock::now();
  std::uint64_t x = 88172645463325252ull, sum = 0;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += x >> 60;
  }
  JsonFields result;
  result.add("calib_ms", seconds_since(start) * 1e3);
  result.add_count("checksum", sum);
  std::printf("%s\n", result.str().c_str());
  return 0;
}

int run_build_info() {
  const common::BuildInfo info = common::build_info();
  JsonFields result;
  result.add_string("commit", info.commit);
  result.add_string("compiler", info.compiler);
  result.add_string("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  result.add_count("ndebug", 1);
#else
  result.add_count("ndebug", 0);
#endif
  result.add_count("sanitize", info.sanitize ? 1 : 0);
  std::printf("%s\n", result.str().c_str());
  return 0;
}

int usage(const char* error) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload NAME "
               "--seed N --mode replay|traced --work-dir DIR [--size F]\n"
               "       perfbench_runner --calibrate | --build-info\n",
               error);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name, mode, work_dir;
  std::uint64_t seed = 0;
  double size = 1.0;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--calibrate") return run_calibrate();
    if (key == "--build-info") return run_build_info();
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      name = value;
    } else if (key == "--mode") {
      mode = value;
    } else if (key == "--work-dir") {
      work_dir = value;
    } else if (key == "--seed") {
      seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--size") {
      size = std::stod(value);
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_seed || work_dir.empty() || !(size > 0.0)) {
    return usage("--seed, --work-dir and a positive --size are required");
  }
  const auto workload = perfbench::find_workload(name, size);
  if (!workload) return usage(("unknown workload '" + name + "'").c_str());
  try {
    if (mode == "replay") return run_replay(*workload, seed, work_dir);
    if (mode == "traced") return run_traced(*workload, seed, work_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s\n", e.what());
    return 1;
  }
  return usage("--mode must be replay or traced");
}
