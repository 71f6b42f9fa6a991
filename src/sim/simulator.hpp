// Deterministic discrete-event simulation engine.
//
// Events are closures scheduled at absolute simulated times; ties are broken
// by insertion order (a monotonically increasing sequence number), so a run
// is bit-reproducible for a fixed seed. Handlers may schedule further events
// and may cancel previously scheduled ones via the returned handle.
//
// A calendar queue with O(1) amortized schedule/fire backs the queue
// (DESIGN.md §15). The counters keep their heap_pushes/heap_pops names, which
// the perf artefact schema uses.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"
#include "perf/counters.hpp"
#include "sim/calendar_queue.hpp"

namespace esg::sim {

/// Handle for cancelling a scheduled event. Default-constructed = invalid.
class EventHandle {
 public:
  EventHandle() = default;

  [[nodiscard]] bool valid() const { return seq_ != 0; }

 private:
  friend class Simulator;
  explicit EventHandle(std::uint64_t seq) : seq_(seq) {}
  std::uint64_t seq_ = 0;
};

class Simulator {
 public:
  using Action = std::function<void()>;

  /// Current simulated time in milliseconds.
  [[nodiscard]] TimeMs now() const { return now_; }

  /// Schedules `action` to fire at now() + delay. delay must be >= 0.
  EventHandle schedule_in(TimeMs delay, Action action);

  /// Schedules `action` at absolute time `when` (>= now()).
  EventHandle schedule_at(TimeMs when, Action action);

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(EventHandle handle);

  /// Runs until the event queue drains. Returns the number of events fired.
  std::size_t run();

  /// Runs until the queue drains or simulated time would exceed `deadline`.
  /// Events scheduled after the deadline stay in the queue.
  std::size_t run_until(TimeMs deadline);

  /// Fires the single earliest event. Returns false if the queue is empty.
  bool step();

  [[nodiscard]] std::size_t pending() const {
    return calendar_.size() - cancelled_;
  }
  [[nodiscard]] bool empty() const { return pending() == 0; }

  /// Always-on hot-path counters for the event loop (DESIGN.md §13).
  [[nodiscard]] const perf::Counters& counters() const { return counters_; }

 private:
  // Per-event lifecycle, indexed by seq - 1 (seqs are dense from 1). One byte
  // per event ever scheduled buys O(1) cancel and cancelled-drop checks;
  // cancellation stays lazy — the queue entry is dropped when it surfaces.
  enum SeqState : std::uint8_t { kSeqLive = 0, kSeqCancelled = 1, kSeqDone = 2 };

  /// Removes the minimum entry (counts a heap_pop). False when empty.
  bool pop_next(TimeMs& when, std::uint64_t& seq, Action& action);
  /// Reads the minimum entry's key without removing it. False when empty.
  bool peek_next(TimeMs& when, std::uint64_t& seq);
  /// Marks `seq` done; true (and bookkeeping updated) if it was cancelled.
  bool consume_cancelled(std::uint64_t seq);

  CalendarQueue calendar_;
  std::vector<std::uint8_t> seq_state_;
  std::size_t cancelled_ = 0;
  TimeMs now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  perf::Counters counters_;
};

}  // namespace esg::sim
