#include "obs/flight_recorder.hpp"

#include <cinttypes>

#include "obs/manifest.hpp"
#include "obs/probe.hpp"

namespace mstc::obs {

void FlightRecorder::set_capacity(std::size_t capacity) {
  ring_.assign(capacity, TraceEvent{});
  next_ = 0;
  total_recorded_ = 0;
}

void FlightRecorder::snapshot(std::vector<TraceEvent>& out) const {
  const std::size_t held = size();
  out.reserve(out.size() + held);
  // Before the ring wraps, slots [0, held) are in record order; after, the
  // oldest surviving event sits at next_ (the slot about to be overwritten).
  const std::size_t start = total_recorded_ > ring_.size() ? next_ : 0;
  for (std::size_t i = 0; i < held; ++i) {
    std::size_t slot = start + i;
    if (slot >= ring_.size()) slot -= ring_.size();
    out.push_back(ring_[slot]);
  }
}

PostMortemWriter::~PostMortemWriter() { close(); }

bool PostMortemWriter::open(const std::string& path) {
  util::MutexLock lock(mutex_);
  if (file_ != nullptr) std::fclose(file_);
  file_ = std::fopen(path.c_str(), "w");
  incidents_ = 0;
  return file_ != nullptr;
}

void PostMortemWriter::close() {
  util::MutexLock lock(mutex_);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

void PostMortemWriter::write(const PostMortem& incident) {
  util::MutexLock lock(mutex_);
  if (file_ == nullptr) return;
  std::fprintf(file_,
               "{\"config_index\":%zu,\"replication\":%zu,\"seed\":%" PRIu64
               ",\"reason\":\"%s\",\"detail\":\"%s\"",
               incident.config_index, incident.replication, incident.seed,
               json_escape(incident.reason).c_str(),
               json_escape(incident.detail).c_str());
  std::fprintf(file_,
               ",\"wall_seconds\":%.6f,\"soft_deadline_seconds\":%.6f",
               incident.wall_seconds, incident.soft_deadline_seconds);
  if (!incident.config_summary.empty()) {
    std::fprintf(file_, ",\"config\":\"%s\"",
                 json_escape(incident.config_summary).c_str());
  }
  const RunObservation* slot = incident.observation;
  if (slot != nullptr && slot->ledger.captured) {
    std::fprintf(file_, ",\"ledger\":{");
    for (std::size_t f = 0; f < kLedgerFieldCount; ++f) {
      const auto field = static_cast<LedgerField>(f);
      std::fprintf(file_, "%s\"%s\":%.9g", f == 0 ? "" : ",",
                   ledger_field_name(field), ledger_value(*slot, field));
    }
    std::fprintf(file_, "}");
  }
  if (slot != nullptr) {
    std::fprintf(file_, ",\"counters\":{");
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      const auto counter = static_cast<Counter>(c);
      std::fprintf(file_, "%s\"%s\":%" PRIu64, c == 0 ? "" : ",",
                   counter_name(counter), slot->counters.total(counter));
    }
    std::fprintf(file_, "}");
  }
  if (slot != nullptr && slot->flight.capacity() > 0) {
    std::vector<TraceEvent> ring;
    slot->flight.snapshot(ring);
    std::fprintf(file_,
                 ",\"flight_total_recorded\":%" PRIu64 ",\"flight\":[",
                 slot->flight.total_recorded());
    for (std::size_t i = 0; i < ring.size(); ++i) {
      const TraceEvent& event = ring[i];
      std::fprintf(file_,
                   "%s{\"t\":%.9g,\"node\":%" PRIu32
                   ",\"kind\":\"%s\",\"value\":%.9g,\"aux\":%" PRIu64 "}",
                   i == 0 ? "" : ",", event.time, event.node,
                   event_kind_name(event.kind), event.value, event.aux);
    }
    std::fprintf(file_, "]");
  }
  std::fprintf(file_, "}\n");
  std::fflush(file_);
  ++incidents_;
}

std::uint64_t PostMortemWriter::incidents() const {
  util::MutexLock lock(mutex_);
  return incidents_;
}

}  // namespace mstc::obs
