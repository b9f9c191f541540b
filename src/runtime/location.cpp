#include "runtime/location.hpp"

namespace orwl::rt {

bool Location::bind_home(int node) {
  home_node_.store(node, std::memory_order_release);
  if (node < 0) return false;
  const int was = buf_.node();
  return buf_.bind_to(node) && was >= 0 && buf_.data() != nullptr;
}

}  // namespace orwl::rt
