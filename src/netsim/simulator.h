// The simulation clock and scheduler.
//
// Everything in the simulated J-QoS deployment -- link deliveries, coding
// queue timers, NACK timers, application send loops -- is an event on this
// single queue, mirroring how the real prototype multiplexes timers on one
// event loop per process.
//
// run()/run_until() drain the queue through EventQueue::drain, so with the
// ladder backend (the default) the dispatch loop serves whole pre-sorted
// rungs of events instead of paying a heap reheapify per event -- the change
// that lets figure sweeps run millions of simulated packets. Construct with
// an explicit EvqBackend (or set JQOS_EVQ_BACKEND) to pin the backend; the
// retained binary heap is the differential-testing reference.
#pragma once

#include <cstddef>
#include <cstdint>

#include "netsim/event_queue.h"

namespace jqos::netsim {

class Simulator {
 public:
  Simulator() = default;
  explicit Simulator(EvqBackend backend) : queue_(backend) {}

  SimTime now() const { return now_; }

  // Schedules at an absolute simulated time (must be >= now()).
  EventId at(SimTime t, EventFn fn);

  // Schedules `d` after now(); negative delays clamp to "immediately".
  EventId after(SimDuration d, EventFn fn);

  // O(1); cancelling a fired, cancelled, or unknown id is a no-op.
  void cancel(EventId id) { queue_.cancel(id); }

  // Runs events until the queue is empty.
  void run();

  // Runs events with timestamp <= deadline, then sets now() = deadline.
  void run_until(SimTime deadline);

  // Runs at most `n` further events; returns how many actually ran.
  std::size_t step(std::size_t n = 1);

  bool idle() const { return queue_.empty(); }
  std::uint64_t events_processed() const { return processed_; }
  EvqBackend backend() const { return queue_.backend(); }

  // Direct queue access for benches and introspection (slab high-water,
  // batched pop_ready experiments); scheduling should go through at/after.
  EventQueue& queue() { return queue_; }

 private:
  EventQueue queue_;
  SimTime now_ = kSimStart;
  std::uint64_t processed_ = 0;
};

}  // namespace jqos::netsim
