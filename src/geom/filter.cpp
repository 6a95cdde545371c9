#include "geom/filter.hpp"

namespace mstc::geom {

const char* filter_backend_name() noexcept { return "scalar"; }

}  // namespace mstc::geom
