// Calendar-queue priority structure for the simulation engine (DESIGN.md §15).
//
// A calendar queue (R. Brown, CACM 1988) spreads pending events over an array
// of day buckets of width `width_` ms; the bucket for an event is
// floor(when / width) mod nbuckets. Because simulated time never moves
// backwards past the queue minimum, dequeue scans at most one lap of the
// calendar starting from the day of the last minimum before falling back to a
// direct search, and the bucket array is resized (with a re-estimated width)
// whenever occupancy drifts, keeping both enqueue and dequeue O(1) amortized.
//
// Ordering contract: pop_min() returns items in strictly ascending
// (when, seq) order — identical to a binary min-heap over the same keys, which
// the randomized lockstep test checks. Equal-timestamp items fire in
// insertion (seq) order.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace esg::sim {

/// One pending event: absolute fire time, insertion sequence number (FIFO
/// tie-break), and the closure to run.
struct CalendarItem {
  TimeMs when = 0.0;
  std::uint64_t seq = 0;
  std::function<void()> action;
};

class CalendarQueue {
 public:
  CalendarQueue();

  /// Inserts an item. `when` must be >= the last popped minimum (enforced by
  /// Simulator, which never schedules in the past).
  void push(CalendarItem item);

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  /// Pointer to the minimum (when, seq) item, or nullptr when empty. Valid
  /// until the next push or pop (the located position is cached, so a peek
  /// followed by pop_min does not scan twice).
  [[nodiscard]] const CalendarItem* peek();

  /// Removes and returns the minimum (when, seq) item. Precondition: !empty().
  CalendarItem pop_min();

  /// Current bucket count (exposed for tests exercising resize behavior).
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

 private:
  [[nodiscard]] std::uint64_t day_of(TimeMs when) const {
    return static_cast<std::uint64_t>(when / width_);
  }
  [[nodiscard]] std::size_t bucket_of(std::uint64_t day) const {
    return static_cast<std::size_t>(day & mask_);
  }

  void locate_min();
  void resize(std::size_t nbuckets);

  std::vector<std::vector<CalendarItem>> buckets_;
  std::uint64_t mask_ = 0;   ///< bucket_count - 1 (bucket count is a power of 2)
  TimeMs width_ = 1.0;       ///< day width in simulated ms
  std::size_t size_ = 0;
  std::uint64_t cur_day_ = 0;  ///< day of the last popped minimum (lower bound)

  // Cached location of the current minimum, maintained across pushes so that
  // peek + pop_min costs one scan. Invalidated by pop_min and resize.
  bool min_cached_ = false;
  std::size_t min_bucket_ = 0;
  std::size_t min_pos_ = 0;
};

}  // namespace esg::sim
