// Discrete-event simulation kernel.
//
// A minimal, deterministic engine: events are (time, sequence, closure)
// triples ordered by time with FIFO tie-breaking, so runs are exactly
// reproducible. This is the ns-2 substitute described in DESIGN.md.
//
// Steady state makes no heap allocations: closures live in SBO Handler
// slots (see handler.hpp) recycled through a free list, and a binary heap
// orders lightweight (time, sequence, slot, key) keys, so reordering moves
// 24 trivially-copyable bytes instead of closures. reserve_events()
// pre-sizes everything from scenario parameters so even warmup growth is
// a handful of vector doublings at most.
//
// A broadcast is one queue entry: schedule_fanout() keeps the receiver list
// once, and dispatch calls one shared closure per delivery with that list
// and the delivery's index, so the receiving side can prefetch the state of
// the receivers a few deliveries ahead (runner::Scenario's Hello path).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "obs/probe.hpp"
#include "sim/handler.hpp"

namespace mstc::sim {

using Time = double;

class Simulator {
 public:
  using Handler = sim::Handler;

  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Attaches an observability probe (nullable). Kernel instrumentation
  /// is the kSimEventsScheduled counter; as everywhere, observation never
  /// feeds back into simulation state.
  void set_probe(const obs::Probe* probe) noexcept { probe_ = probe; }

  /// Pre-sizes the queue, the handler slots and the free list for
  /// `expected_events` simultaneously-pending events (scenario setup knows
  /// the schedule shape; growing past it stays correct, just reallocates).
  void reserve_events(std::size_t expected_events);

  /// Schedules `handler` at absolute time `at` (must be >= now()).
  void schedule_at(Time at, Handler handler);

  /// Schedules `handler` after `delay` seconds (must be >= 0).
  void schedule_in(Time delay, Handler handler) {
    schedule_at(now_ + delay, std::move(handler));
  }

  /// Schedules a batched broadcast fan-out: one queue entry standing in
  /// for `receivers.size()` deliveries at time `at`, all sharing the
  /// single callable `fn`. Delivery i is the call fn(span, i) for
  /// i = 0, 1, ..., where span is the kernel's copy of `receivers`
  /// (ascending), so a delivery can see the receivers after it. The call
  /// reserves `receivers.size()` consecutive sequence numbers up front —
  /// exactly the numbers an equivalent per-receiver schedule_at loop would
  /// have drawn — and dispatch replays them one delivery at a time, so
  /// now()/current_sequence()/processed_events() observed by each delivery
  /// (and the ordering of anything scheduled afterwards) are
  /// byte-identical to the unbatched stream. Receiver ids must be unique;
  /// an empty span schedules nothing. The span stays valid for the call
  /// that receives it.
  void schedule_fanout(Time at, std::span<const std::uint32_t> receivers,
                       FanoutHandler fn);

  /// Runs events until the queue empties or the next event is later than
  /// `end`; the clock finishes at exactly `end`.
  void run_until(Time end);

  /// Runs until the queue is empty.
  void run_all();

  [[nodiscard]] std::size_t pending_events() const noexcept {
    return heap_.size();
  }
  /// Number of handlers that have STARTED executing, including the one
  /// currently running. Note this is a count, not an identity: from inside
  /// a handler it cannot distinguish simultaneous events (several handlers
  /// at the same sim-time each see a different count, but the count says
  /// nothing about schedule order). Use current_sequence() for that.
  [[nodiscard]] std::uint64_t processed_events() const noexcept {
    return processed_;
  }

  /// Sequence number of the event whose handler is currently executing
  /// (meaningful only from inside a handler; 0 before the first event).
  ///
  /// Tie-break contract: events are ordered by (time, sequence), where
  /// sequence is the global schedule_at/schedule_in call order — FIFO among
  /// simultaneous events. Within one sim-time instant current_sequence()
  /// is therefore strictly increasing across handlers, giving observers
  /// (e.g. the obs trace sink) a stable total order over records that
  /// share a timestamp.
  [[nodiscard]] std::uint64_t current_sequence() const noexcept {
    return current_sequence_;
  }

 private:
  /// Heap entry: ordering data plus the index of the event's Handler slot.
  /// `key` marks batched fan-out entries and never participates in
  /// ordering, which is by (time, sequence) — a strict total order, since
  /// sequence numbers are unique.
  struct EventKey {
    Time time;
    std::uint64_t sequence;
    std::uint32_t slot;
    std::uint32_t key;
  };
  /// Reverse (time, sequence) order: the comparator of the min-heap.
  struct LaterEvent;

  /// EventKey::key of a batched fan-out entry (its slot indexes
  /// fanout_slots_, not slots_); every other event carries 0.
  static constexpr std::uint32_t kFanoutKey = 1;

  /// One in-flight batched broadcast: the receiver list and the shared
  /// per-receiver callable.
  struct FanoutSlot {
    std::vector<std::uint32_t> receivers;
    FanoutHandler fn;
  };

  /// Pops + executes a fan-out entry: replays the reserved sequence span
  /// one delivery at a time.
  void run_fanout(const EventKey& top);

  /// Returns a fan-out slot to the free list, keeping its receiver
  /// vector's capacity.
  void release_fanout_slot(std::uint32_t slot);

  /// Heap push, and pop of the earliest event (requires a non-empty heap).
  void push(const EventKey& event);
  EventKey pop();

  /// Pops the earliest event, releases its slot (the handler is already
  /// moved out, so a reentrant schedule_at may reuse it immediately) and
  /// advances the clock/sequence/processed counters; returns the handler.
  Handler take_next();

  std::vector<EventKey> heap_;  // min-heap via std::push_heap/pop_heap
  std::vector<Handler> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<FanoutSlot> fanout_slots_;  // recycled; vectors keep capacity
  std::vector<std::uint32_t> free_fanout_slots_;
  const obs::Probe* probe_ = nullptr;
  Time now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t current_sequence_ = 0;
};

}  // namespace mstc::sim
