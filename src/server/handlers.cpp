#include "server/handlers.hpp"

#include <memory>

namespace orwl::server {

Handler make_video_handler(apps::VideoParams params) {
  return [params](const TenantEnv& env) {
    rt::ProgramStats stats;
    apps::video_orwl(params, env.program_options(), &stats);
    return stats;
  };
}

Handler make_lk23_handler(std::size_t n, std::size_t iters,
                          std::size_t blocks_y, std::size_t blocks_x,
                          std::uint64_t seed) {
  auto input = std::make_shared<const apps::Lk23Problem>(
      apps::Lk23Problem::generate(n, seed));
  return [=](const TenantEnv& env) {
    apps::Lk23Problem p = *input;
    rt::ProgramStats stats;
    apps::lk23_orwl(p, iters, blocks_y, blocks_x, env.program_options(),
                    &stats);
    return stats;
  };
}

}  // namespace orwl::server
