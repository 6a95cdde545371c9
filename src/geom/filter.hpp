// SoA range filtering for conservative-radius candidate sets.
//
// The medium's receiver queries and the snapshot sweep both end in the
// same inner loop: re-check every grid candidate against the *exact*
// range. This loop evaluates the predicate
//
//     geom::distance_sq(origin, {xs[i], ys[i]}) <= range_sq
//
// over caller-filled SoA coordinate arrays, emitting accepted ids in the
// input (ascending) order. It stays one portable scalar loop because SIMD
// block kernels measured flat end to end (docs/PERFORMANCE.md, "Event
// queue and filter kernels: measured and removed").
#pragma once

#include <cstddef>
#include <vector>

#include "geom/vec2.hpp"

namespace mstc::geom {

/// `skip` value meaning "exclude no id" (no candidate carries it).
inline constexpr std::size_t kFilterNoSkip = static_cast<std::size_t>(-1);

/// Name of the filter backend; always "scalar". Result files record it.
[[nodiscard]] const char* filter_backend_name() noexcept;

/// Appends ids[i] (in input order) for every i with
/// distance_sq(origin, {xs[i], ys[i]}) <= range_sq, except ids[i] == skip.
void filter_within_range(const double* xs, const double* ys,
                         const std::size_t* ids, std::size_t count,
                         Vec2 origin, double range_sq, std::size_t skip,
                         std::vector<std::size_t>& out);

/// Number of i with distance_sq(origin, {xs[i], ys[i]}) <= range_sq (no id
/// emission, no skip — callers subtract self-matches themselves).
[[nodiscard]] std::size_t count_within_range(const double* xs,
                                             const double* ys,
                                             std::size_t count, Vec2 origin,
                                             double range_sq);

}  // namespace mstc::geom
