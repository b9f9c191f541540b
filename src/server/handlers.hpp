// Stock request handlers: the paper's evaluation applications wrapped as
// server tenants. Each handler runs one full ORWL program per request
// inside the tenant's carve-out (its private sub-topology), using the
// pre-composed TenantEnv program options, and returns the run's
// ProgramStats for the per-tenant rollup.
#pragma once

#include <cstddef>
#include <cstdint>

#include "apps/lk23.hpp"
#include "apps/video.hpp"
#include "server/server.hpp"

namespace orwl::server {

/// Video-tracking pipeline (Sec. V-C) as a request handler: each request
/// processes `params.frames` frames of the synthetic scene.
Handler make_video_handler(apps::VideoParams params);

/// Livermore Kernel 23 (Sec. V-A) as a request handler: each request
/// runs `iters` sweeps of an n x n problem on a blocks_y x blocks_x task
/// grid. The seeded problem is generated once, here; each request sweeps
/// its own copy of `za` and shares the constant coefficients, so requests
/// are independent and repeatable.
Handler make_lk23_handler(std::size_t n, std::size_t iters,
                          std::size_t blocks_y, std::size_t blocks_x,
                          std::uint64_t seed = 7);

}  // namespace orwl::server
