#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mstc::sim {

/// FIFO among simultaneous events: the earlier sequence pops first.
struct Simulator::LaterEvent {
  bool operator()(const EventKey& a, const EventKey& b) const noexcept {
    if (a.time != b.time) return b.time < a.time;
    return b.sequence < a.sequence;
  }
};

void Simulator::reserve_events(std::size_t expected_events) {
  heap_.reserve(expected_events);
  slots_.reserve(expected_events);
  free_slots_.reserve(expected_events);
}

// mstc:hot — runs once per scheduled event; slot reuse keeps it allocation-free
void Simulator::schedule_at(Time at, Handler handler) {
  assert(at >= now_ && "cannot schedule in the past");
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(handler);
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.push_back(std::move(handler));
  }
  push(EventKey{at, next_sequence_++, slot, 0});
  if (probe_ != nullptr) probe_->count(obs::Counter::kSimEventsScheduled);
}

// mstc:hot — runs once per Hello broadcast; one queue push stands in for
// ~degree per-receiver pushes, and slot reuse keeps it allocation-free in
// steady state (the receiver vector keeps its capacity across recycles)
void Simulator::schedule_fanout(Time at,
                                std::span<const std::uint32_t> receivers,
                                FanoutHandler fn) {
  assert(at >= now_ && "cannot schedule in the past");
  // The equivalent per-receiver loop pushes nothing for an empty set, so
  // neither does the batched path (no event, no sequence numbers).
  if (receivers.empty()) return;
#ifndef NDEBUG
  for (std::size_t i = 0; i + 1 < receivers.size(); ++i) {
    assert(receivers[i] < receivers[i + 1] &&
           "fan-out receivers must be unique and ascending");
  }
#endif
  std::uint32_t slot;
  if (!free_fanout_slots_.empty()) {
    slot = free_fanout_slots_.back();
    free_fanout_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(fanout_slots_.size());
    fanout_slots_.emplace_back();
  }
  FanoutSlot& entry = fanout_slots_[slot];
  entry.receivers.assign(receivers.begin(), receivers.end());
  entry.fn = std::move(fn);
  // Reserve the exact consecutive sequence span the unbatched loop would
  // have drawn; dispatch replays it one delivery at a time.
  const std::uint64_t first = next_sequence_;
  next_sequence_ += receivers.size();
  push(EventKey{at, first, slot, kFanoutKey});
  if (probe_ != nullptr) {
    probe_->count(obs::Counter::kSimEventsScheduled, receivers.size());
  }
}

// mstc:hot — one call per scheduled event
void Simulator::push(const EventKey& event) {
  heap_.push_back(event);
  std::push_heap(heap_.begin(), heap_.end(), LaterEvent{});
}

// mstc:hot — once per dispatched event
Simulator::EventKey Simulator::pop() {
  assert(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), LaterEvent{});
  const EventKey out = heap_.back();
  heap_.pop_back();
  return out;
}

// mstc:hot — runs once per dispatched event
Simulator::Handler Simulator::take_next() {
  const EventKey key = pop();
  Handler handler = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  now_ = key.time;
  current_sequence_ = key.sequence;
  ++processed_;
  return handler;
}

// mstc:hot — one pop per broadcast, replayed as per-receiver deliveries
// with the pre-assigned (time, sequence) keys of the unbatched stream
void Simulator::run_fanout(const EventKey& top) {
  const Time at = top.time;
  const std::uint32_t slot = top.slot;
  std::uint64_t sequence = top.sequence;
  pop();  // invalidates `top`
  now_ = at;
  // One timed scope per broadcast (not per delivery), so attribution costs
  // two clock reads per ~degree deliveries.
  const obs::ScopedTimer timer(
      probe_ != nullptr ? probe_->profiler() : nullptr,
      obs::Category::kDelivery);
  const std::size_t count = fanout_slots_[slot].receivers.size();
  for (std::size_t i = 0; i < count; ++i) {
    // Re-index every round: a delivery may legally schedule, and a
    // reentrant schedule_fanout can grow fanout_slots_.
    FanoutSlot& entry = fanout_slots_[slot];
    current_sequence_ = sequence++;
    ++processed_;
    entry.fn(entry.receivers, i);
  }
  release_fanout_slot(slot);
}

void Simulator::release_fanout_slot(std::uint32_t slot) {
  FanoutSlot& entry = fanout_slots_[slot];
  entry.receivers.clear();
  entry.fn = FanoutHandler{};  // drop the closure; keep vector capacity
  free_fanout_slots_.push_back(slot);
}

void Simulator::run_until(Time end) {
  while (!heap_.empty()) {
    const EventKey& top = heap_.front();
    if (top.time > end) break;
    if (top.key == kFanoutKey) {
      run_fanout(top);
      continue;
    }
    Handler handler = take_next();
    handler();
  }
  now_ = end;
}

void Simulator::run_all() {
  while (!heap_.empty()) {
    const EventKey& top = heap_.front();
    if (top.key == kFanoutKey) {
      run_fanout(top);
      continue;
    }
    Handler handler = take_next();
    handler();
  }
}

}  // namespace mstc::sim
