// Name of the candidate-filter backend, recorded in result files.
//
// The grid paths re-check their candidates in place, with no branch on the
// exact test geom::distance_sq(origin, p) <= range_sq (sim/medium.cpp,
// metrics/snapshot.cpp), so there is one backend; the end-to-end
// benchmark's result files record its name.
#pragma once

namespace mstc::geom {

/// Name of the filter backend; always "scalar". Result files record it.
[[nodiscard]] const char* filter_backend_name() noexcept;

}  // namespace mstc::geom
