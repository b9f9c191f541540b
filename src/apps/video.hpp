// The HD video-tracking application (Sec. V-C): a synchronous data-flow
// graph implemented on ORWL, with pipeline parallelism between stages and
// data parallelism (orwl_split) inside the two most expensive stages.
//
// Task graph (ids match the paper's Fig. 2 for the default parameters):
//
//   0 producer -> {10..25} gmm_split -> 1 gmm -> 2 erode
//     -> 3..6 dilate chain -> {26..29} ccl_split -> 7 ccl
//     -> 8 tracking -> 9 consumer
//
// The producer publishes frames through an orwl_fifo (2 versioned slots);
// the 16 GMM split tasks read each frame concurrently (reader sharing)
// and classify one horizontal band each; the 4 CCL split tasks label
// bands of the dilated mask; the merge tasks stitch bands back together.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "orwl/orwl.hpp"
#include "pool/thread_pool.hpp"
#include "treematch/comm_matrix.hpp"

namespace orwl::apps {

struct VideoParams {
  std::size_t width = 1280;   ///< HD by default
  std::size_t height = 720;
  std::size_t frames = 32;
  std::size_t gmm_splits = 16;
  std::size_t dilates = 4;
  std::size_t ccl_splits = 4;
  std::size_t objects = 3;
  std::int64_t min_area = 30;
  std::uint64_t seed = 5;

  std::size_t num_tasks() const {
    return 6 + dilates + gmm_splits + ccl_splits;
  }

  // Task id layout.
  std::size_t producer_task() const { return 0; }
  std::size_t gmm_task() const { return 1; }
  std::size_t erode_task() const { return 2; }
  std::size_t dilate_task(std::size_t i) const { return 3 + i; }
  std::size_t ccl_task() const { return 3 + dilates; }
  std::size_t tracking_task() const { return 4 + dilates; }
  std::size_t consumer_task() const { return 5 + dilates; }
  std::size_t gmm_split_task(std::size_t g) const {
    return 6 + dilates + g;
  }
  std::size_t ccl_split_task(std::size_t c) const {
    return 6 + dilates + gmm_splits + c;
  }
};

/// Common resolutions of the paper's Fig. 6.
VideoParams video_hd();
VideoParams video_full_hd();
VideoParams video_4k();

struct VideoResult {
  std::size_t frames = 0;
  double seconds = 0;
  std::size_t total_detections = 0;
  std::size_t total_tracks_created = 0;
  std::size_t final_track_count = 0;
  /// Per-frame detection counts (for cross-implementation equivalence).
  std::vector<int> detections_per_frame;
  /// Track positions after the last frame, sorted by track id.
  std::vector<std::array<double, 2>> final_track_positions;

  double fps() const { return seconds > 0 ? frames / seconds : 0.0; }
};

/// Single-threaded reference implementation.
VideoResult video_sequential(const VideoParams& params);

/// The ORWL data-flow implementation described above. When `stats_out`
/// is non-null it receives the runtime's ProgramStats snapshot after the
/// run (the server layer rolls these up per tenant).
VideoResult video_orwl(const VideoParams& params,
                       rt::ProgramOptions prog_opts = {},
                       rt::ProgramStats* stats_out = nullptr);

/// Fork-join baseline: per frame, each stage is a parallel-for over rows
/// / bands with a barrier in between (the paper's OpenMP comparison:
/// "fork-join in each stage of the image processing pipeline").
VideoResult video_forkjoin(const VideoParams& params,
                           pool::ThreadPool& pool);

/// Communication matrix of the ORWL task graph, read off the real
/// wiring's declarations (this is the matrix of the paper's Fig. 1).
tm::CommMatrix video_comm_matrix(const VideoParams& params);

/// Task names matching the paper's Fig. 2 labels.
std::vector<std::string> video_task_names(const VideoParams& params);

}  // namespace orwl::apps
