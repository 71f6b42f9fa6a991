// Timing decorators the traced run wraps around the layers' public calls:
// the scheduler interface (plan / place / on_request) and the trace sinks.
// They forward every call unchanged, so a traced replay makes the same
// decisions as an untraced one; the runner checks that it does.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "obs/sink.hpp"
#include "platform/scheduler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SchedulerStats {
  std::uint64_t plans = 0;
  std::uint64_t defers = 0;
  double plan_s = 0.0;
  std::vector<float> plan_us;  ///< one sample per plan() call
  std::uint64_t places = 0;
  std::uint64_t place_failures = 0;
  double place_s = 0.0;
  double on_request_s = 0.0;
};

class TimedScheduler final : public esg::platform::Scheduler {
 public:
  TimedScheduler(esg::platform::Scheduler& inner, SchedulerStats& stats)
      : inner_(inner), stats_(stats) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_.name();
  }

  esg::platform::PlanResult plan(
      const esg::platform::QueueView& view) override {
    const auto start = Clock::now();
    esg::platform::PlanResult result = inner_.plan(view);
    const double s = seconds_since(start);
    ++stats_.plans;
    stats_.plan_s += s;
    stats_.plan_us.push_back(static_cast<float>(s * 1e6));
    if (result.defer) ++stats_.defers;
    return result;
  }

  std::optional<esg::InvokerId> place(
      const esg::platform::PlacementContext& ctx,
      const esg::cluster::Cluster& cluster) override {
    const auto start = Clock::now();
    std::optional<esg::InvokerId> result = inner_.place(ctx, cluster);
    stats_.place_s += seconds_since(start);
    ++stats_.places;
    if (!result) ++stats_.place_failures;
    return result;
  }

  void on_request(esg::RequestId request, esg::AppId app,
                  esg::TimeMs now_ms) override {
    const auto start = Clock::now();
    inner_.on_request(request, app, now_ms);
    stats_.on_request_s += seconds_since(start);
  }

  void on_stage_retry(esg::AppId app, esg::workload::NodeIndex stage,
                      esg::TimeMs now_ms) override {
    inner_.on_stage_retry(app, stage, now_ms);
  }

  [[nodiscard]] std::vector<double> planned_stage_fractions(
      esg::AppId app) const override {
    return inner_.planned_stage_fractions(app);
  }

  [[nodiscard]] bool prefers_locality() const override {
    return inner_.prefers_locality();
  }

 private:
  esg::platform::Scheduler& inner_;
  SchedulerStats& stats_;
};

struct SinkStats {
  std::uint64_t spans = 0;
  double seconds = 0.0;
};

class TimedSink final : public esg::obs::TraceSink {
 public:
  TimedSink(std::unique_ptr<esg::obs::TraceSink> inner, SinkStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void on_span(const esg::obs::Span& span) override {
    const auto start = Clock::now();
    inner_->on_span(span);
    stats_.seconds += seconds_since(start);
    ++stats_.spans;
  }
  void on_instant(const esg::obs::Instant& instant) override {
    const auto start = Clock::now();
    inner_->on_instant(instant);
    stats_.seconds += seconds_since(start);
  }
  void on_counter(const esg::obs::CounterSample& sample) override {
    const auto start = Clock::now();
    inner_->on_counter(sample);
    stats_.seconds += seconds_since(start);
  }
  void on_process_name(std::uint32_t pid, std::string_view name) override {
    inner_->on_process_name(pid, name);
  }
  void on_thread_name(esg::obs::Track track, std::string_view name) override {
    inner_->on_thread_name(track, name);
  }
  void flush() override {
    const auto start = Clock::now();
    inner_->flush();
    stats_.seconds += seconds_since(start);
  }

 private:
  std::unique_ptr<esg::obs::TraceSink> inner_;
  SinkStats& stats_;
};

}  // namespace perfbench
