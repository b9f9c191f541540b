#include "runtime/location.hpp"

#include "support/env.hpp"

namespace orwl::rt {

const char* to_string(DataTransferMode p) noexcept {
  return support::choice_name(support::knob::kDataTransfer, p);
}

bool Location::bind_home(int node) {
  home_node_.store(node, std::memory_order_release);
  if (node < 0) return false;
  const int was = buf_.node();
  return buf_.bind_to(node) && was >= 0 && buf_.data() != nullptr;
}

}  // namespace orwl::rt
