// Process resource-usage helpers (getrusage).
//
// Like wall-clock time, resource usage describes the machine, not the
// simulation: these readings feed the observability ledger and manifests
// only, never simulation state. The `wall-clock` rule of tools/mstc_tidy.py
// confines the raw getrusage(2) call to rusage.cpp, mirroring how clock
// reads are confined to src/obs/profile.cpp.
#pragma once

#include <cstdint>

namespace mstc::util {

/// Peak resident set size of the process in bytes (ru_maxrss), 0 when the
/// platform cannot report it. Monotonic over the process lifetime: the
/// kernel reports the high-water mark, so per-replication readings record
/// "the process had grown this large by the time this replication
/// finished", not a per-replication footprint.
[[nodiscard]] std::uint64_t peak_rss_bytes() noexcept;

}  // namespace mstc::util
