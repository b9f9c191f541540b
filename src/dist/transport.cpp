#include "dist/transport.hpp"

#include "support/env.hpp"

namespace orwl::dist {

const char* to_string(DistMode m) noexcept {
  return support::choice_name(support::knob::kDist, m);
}

}  // namespace orwl::dist
