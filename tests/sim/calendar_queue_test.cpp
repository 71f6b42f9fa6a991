// Calendar-queue engine tests (DESIGN.md §15): raw CalendarQueue ordering
// and resize behavior, plus Simulator-level event order — equal-timestamp
// FIFO stability, cancel-after-fire on bucket boundaries, horizon-exclusive
// firing, and a randomized lockstep check against a binary-heap reference.
#include "sim/calendar_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/simulator.hpp"

namespace esg::sim {
namespace {

CalendarItem item(TimeMs when, std::uint64_t seq) {
  return CalendarItem{when, seq, [] {}};
}

TEST(CalendarQueue, PopsInWhenOrder) {
  CalendarQueue q;
  q.push(item(5.0, 1));
  q.push(item(1.0, 2));
  q.push(item(9.0, 3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop_min().when, 1.0);
  EXPECT_EQ(q.pop_min().when, 5.0);
  EXPECT_EQ(q.pop_min().when, 9.0);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, EqualTimestampsPopInSeqOrder) {
  CalendarQueue q;
  // Push in scrambled seq order at one timestamp: FIFO must be by seq, not
  // by insertion position inside the bucket.
  q.push(item(3.0, 4));
  q.push(item(3.0, 1));
  q.push(item(3.0, 3));
  q.push(item(3.0, 2));
  for (std::uint64_t expected = 1; expected <= 4; ++expected) {
    EXPECT_EQ(q.pop_min().seq, expected);
  }
}

TEST(CalendarQueue, PeekMatchesPopAndSurvivesLargerPush) {
  CalendarQueue q;
  q.push(item(7.0, 1));
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->when, 7.0);
  q.push(item(9.0, 2));  // larger: cached min must stay 7.0
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->when, 7.0);
  q.push(item(2.0, 3));  // smaller: cached min must move
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(q.peek()->when, 2.0);
  EXPECT_EQ(q.pop_min().when, 2.0);
}

TEST(CalendarQueue, GrowsAndShrinksAcrossLoadSwings) {
  CalendarQueue q;
  const std::size_t initial_buckets = q.bucket_count();
  std::uint64_t seq = 1;
  for (int i = 0; i < 4096; ++i) {
    q.push(item(static_cast<TimeMs>(i) * 0.37, seq++));
  }
  EXPECT_GT(q.bucket_count(), initial_buckets);
  TimeMs last = -1.0;
  while (q.size() > 8) {
    const CalendarItem popped = q.pop_min();
    EXPECT_GE(popped.when, last);
    last = popped.when;
  }
  EXPECT_LT(q.bucket_count(), 4096u);
}

TEST(CalendarQueue, OrderSurvivesWidthSkew) {
  // Mix sub-width clusters with far-future outliers so items share buckets
  // across different laps; order must still be exact.
  CalendarQueue q;
  std::vector<TimeMs> whens = {0.001, 1000.0, 0.002, 5'000'000.0,
                               17.0,  17.0,   16.99, 250'000.0};
  for (std::size_t i = 0; i < whens.size(); ++i) {
    q.push(item(whens[i], i + 1));
  }
  std::vector<TimeMs> sorted = whens;
  std::sort(sorted.begin(), sorted.end());
  for (const TimeMs expected : sorted) {
    EXPECT_EQ(q.pop_min().when, expected);
  }
}

// -- Simulator-level event order --------------------------------------------

TEST(CalendarEngine, EqualTimestampFifoStability) {
  Simulator sim;
  std::vector<int> order;
  // Many ties at one instant, interleaved with other instants, scheduled in
  // shuffled time order: ties must fire in scheduling order.
  sim.schedule_in(2.0, [&] { order.push_back(20); });
  sim.schedule_in(1.0, [&] { order.push_back(10); });
  sim.schedule_in(2.0, [&] { order.push_back(21); });
  sim.schedule_in(1.0, [&] { order.push_back(11); });
  sim.schedule_in(2.0, [&] { order.push_back(22); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21, 22}));
}

TEST(CalendarEngine, CancelAfterFireOnBucketBoundary) {
  // The cancelled event sits exactly on a day boundary (width starts at
  // 1 ms, so integer times are boundaries); cancelling it after an earlier
  // same-bucket event fired must not disturb later firing or counters.
  Simulator sim;
  std::vector<int> order;
  EventHandle doomed = sim.schedule_at(4.0, [&] { order.push_back(99); });
  sim.schedule_at(3.0, [&] {
    order.push_back(1);
    sim.cancel(doomed);
  });
  sim.schedule_at(4.0, [&] { order.push_back(2); });
  sim.schedule_at(5.0, [&] { order.push_back(3); });
  const std::size_t fired = sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(fired, 3u);
  EXPECT_EQ(sim.counters().events_cancelled, 1u);
  // Cancelling again after the queue drained stays a no-op.
  sim.cancel(doomed);
  EXPECT_EQ(sim.counters().events_cancelled, 1u);
  EXPECT_TRUE(sim.empty());
}

TEST(CalendarEngine, RunUntilIsHorizonExclusiveForLaterEvents) {
  Simulator sim;
  std::vector<TimeMs> fired;
  sim.schedule_at(10.0, [&] { fired.push_back(10.0); });
  sim.schedule_at(20.0, [&] { fired.push_back(20.0); });
  sim.schedule_at(20.5, [&] { fired.push_back(20.5); });
  sim.run_until(20.0);
  // Events at exactly the deadline fire; strictly later ones stay queued.
  EXPECT_EQ(fired, (std::vector<TimeMs>{10.0, 20.0}));
  EXPECT_EQ(sim.now(), 20.0);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired.back(), 20.5);
}

TEST(CalendarEngine, ScheduleEarlierAfterCancelledDeadlineDrop) {
  // run_until may drop a cancelled entry that lies past the deadline; a
  // later schedule below that dropped time must still fire first (the
  // cur_day_ lower-bound invariant).
  Simulator sim;
  std::vector<int> order;
  EventHandle doomed = sim.schedule_at(100.0, [&] { order.push_back(99); });
  sim.cancel(doomed);
  sim.run_until(50.0);  // drops the cancelled 100.0 entry past the deadline
  sim.schedule_at(60.0, [&] { order.push_back(1); });
  sim.schedule_at(70.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), 70.0);
}

/// Reference event queue for the lockstep test: a binary min-heap on
/// (when, seq) with lazy cancellation. It follows the Simulator's firing
/// rules and counter ticks, so both must agree event for event.
class HeapReference {
 public:
  using Action = std::function<void()>;

  [[nodiscard]] TimeMs now() const { return now_; }
  [[nodiscard]] std::size_t pending() const { return heap_.size() - cancelled_; }
  [[nodiscard]] const perf::Counters& counters() const { return counters_; }

  std::uint64_t schedule_in(TimeMs delay, Action action) {
    actions_.push_back(std::move(action));
    state_.push_back(kLive);
    const std::uint64_t seq = actions_.size();  // dense from 1
    heap_.emplace(now_ + delay, seq);
    ++counters_.events_scheduled;
    ++counters_.heap_pushes;
    return seq;
  }

  void cancel(std::uint64_t seq) {
    if (seq == 0 || seq > state_.size() || state_[seq - 1] != kLive) return;
    state_[seq - 1] = kCancelled;
    ++cancelled_;
    ++counters_.events_cancelled;
  }

  bool step() {
    while (!heap_.empty()) {
      const auto [when, seq] = pop();
      if (consume_cancelled(seq)) continue;
      now_ = when;
      ++counters_.events_fired;
      std::exchange(actions_[seq - 1], nullptr)();
      return true;
    }
    return false;
  }

  void run() {
    while (step()) {
    }
  }

  void run_until(TimeMs deadline) {
    while (!heap_.empty()) {
      const auto [when, seq] = heap_.top();
      if (state_[seq - 1] == kCancelled) {
        consume_cancelled(pop().second);
        continue;
      }
      if (when > deadline) break;
      step();
    }
    now_ = std::max(now_, deadline);
  }

 private:
  enum State : std::uint8_t { kLive, kCancelled, kDone };
  using Key = std::pair<TimeMs, std::uint64_t>;

  Key pop() {
    const Key top = heap_.top();
    heap_.pop();
    ++counters_.heap_pops;
    return top;
  }

  bool consume_cancelled(std::uint64_t seq) {
    const State was = std::exchange(state_[seq - 1], kDone);
    if (was != kCancelled) return false;
    --cancelled_;
    return true;
  }

  std::priority_queue<Key, std::vector<Key>, std::greater<>> heap_;
  std::vector<Action> actions_;  // indexed by seq - 1
  std::vector<State> state_;     // indexed by seq - 1
  std::size_t cancelled_ = 0;
  TimeMs now_ = 0.0;
  perf::Counters counters_;
};

/// Drives the Simulator and the heap reference in lockstep through a
/// randomized schedule/cancel/run_until workload and asserts identical firing
/// logs, clocks, and counters. The workload self-schedules from handlers so
/// ties, cancels of fired events, and bucket-boundary times all occur
/// organically.
TEST(CalendarEngine, RandomizedHeapEquivalence) {
  for (std::uint64_t round = 0; round < 20; ++round) {
    std::mt19937_64 heap_rng(900 + round);
    std::mt19937_64 cal_rng(900 + round);

    const auto drive = [](auto& sim, std::mt19937_64& rng) {
      std::vector<std::string> log;
      std::vector<decltype(sim.schedule_in(0.0, {}))> handles;
      std::uniform_real_distribution<double> delay(0.0, 8.0);
      std::uniform_int_distribution<int> action(0, 9);
      // Quantize half the delays to integers so bucket boundaries and exact
      // ties are common rather than measure-zero.
      const auto next_delay = [&] {
        const double d = delay(rng);
        return (action(rng) < 5) ? static_cast<TimeMs>(static_cast<int>(d))
                                 : static_cast<TimeMs>(d);
      };
      std::function<void(int)> spawn = [&](int depth) {
        if (depth > 64) return;
        const int what = action(rng);
        const TimeMs d = next_delay();
        if (what < 6) {
          handles.push_back(sim.schedule_in(d, [&log, &sim, &spawn, depth] {
            log.push_back("fire@" + std::to_string(sim.now()));
            spawn(depth + 1);
          }));
        } else if (what < 8 && !handles.empty()) {
          std::uniform_int_distribution<std::size_t> pick(0,
                                                          handles.size() - 1);
          sim.cancel(handles[pick(rng)]);
          log.push_back("cancel");
        } else {
          handles.push_back(sim.schedule_in(d, [&log, &sim] {
            log.push_back("leaf@" + std::to_string(sim.now()));
          }));
        }
      };
      for (int i = 0; i < 40; ++i) spawn(0);
      sim.run_until(10.0);
      for (int i = 0; i < 10; ++i) spawn(0);
      sim.run();
      return log;
    };

    HeapReference heap_sim;
    Simulator cal_sim;
    const auto heap_log = drive(heap_sim, heap_rng);
    const auto cal_log = drive(cal_sim, cal_rng);

    ASSERT_EQ(heap_log, cal_log) << "round " << round;
    EXPECT_EQ(heap_sim.now(), cal_sim.now());
    EXPECT_EQ(heap_sim.counters().events_fired,
              cal_sim.counters().events_fired);
    EXPECT_EQ(heap_sim.counters().events_scheduled,
              cal_sim.counters().events_scheduled);
    EXPECT_EQ(heap_sim.counters().events_cancelled,
              cal_sim.counters().events_cancelled);
    EXPECT_EQ(heap_sim.counters().heap_pushes, cal_sim.counters().heap_pushes);
    EXPECT_EQ(heap_sim.counters().heap_pops, cal_sim.counters().heap_pops);
    EXPECT_EQ(heap_sim.pending(), cal_sim.pending());
  }
}

}  // namespace
}  // namespace esg::sim
