// Image-processing building blocks of the HD video-tracking application
// (Sec. V-C): synthetic scene generation, background subtraction with a
// per-pixel running Gaussian model (the "GMM" stage, following the
// foreground-background extraction technique of [16]), 3x3 binary
// morphology (erode / dilate), two-pass union-find connected-component
// labeling (CCL, with banded processing for the orwl_split decomposition)
// and the centroid tracker.
//
// Every kernel is written for the pipeline to measure the runtime rather
// than its kernels:
//  * the scene render hashes each pixel's noise in vector lanes (the
//    64-bit `h % 7` is taken on the sum of h's 24-bit digits, which fits
//    a 32-bit lane), with its row loop compiled for AVX2 and for the
//    baseline ISA and picked per call (render_isa());
//  * the background model updates by selects rather than a conditional
//    store, so the compiler vectorises it (image.cpp's per-file flags in
//    src/CMakeLists.txt keep sqrt free of errno and FMA contraction off);
//  * a 3x3 erosion (dilation) is a byte min (max) over three clamped
//    rows, which the compiler vectorises;
//  * the CCL labels horizontal runs rather than pixels, with one
//    union-find entry per run.
// All are bit-identical to the scalar or per-pixel definitions
// (tests/image_test.cpp keeps those as references); bench/micro_image
// times every stage per frame.
//
// The paper processes camera footage; we substitute a deterministic
// synthetic scene (moving bright squares over a textured noisy
// background) that exercises the identical per-pixel code paths.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace orwl::apps {

using Pixel = std::uint8_t;

constexpr Pixel kForeground = 255;
constexpr Pixel kBackground = 0;

// ------------------------------------------------------------ scene -----

struct SceneObject {
  double x, y;    ///< top-left corner
  double vx, vy;  ///< velocity in pixels/frame
  std::size_t size;
  Pixel intensity;
};

/// Deterministic synthetic video source.
struct Scene {
  std::size_t width = 0;
  std::size_t height = 0;
  std::vector<SceneObject> objects;
  std::uint64_t noise_seed = 0;

  static Scene demo(std::size_t width, std::size_t height,
                    std::size_t num_objects, std::uint64_t seed);

  /// Render frame `f` into `out` (size width*height): textured background
  /// + per-pixel deterministic noise + the moving objects. The background
  /// loop is compiled for AVX2 and for the build's baseline ISA; this
  /// runs the one the CPU supports (render_isa() names it).
  void render(std::size_t f, Pixel* out) const;

  /// render() on the baseline-ISA loop, callable directly so that tests
  /// and benches cover it on CPUs that pick AVX2. Same bytes.
  void render_portable(std::size_t f, Pixel* out) const;

  /// Ground-truth top-left positions of the objects at frame f.
  std::vector<std::array<double, 2>> positions(std::size_t f) const;
};

/// The loop Scene::render() runs on this CPU: "avx2" or "portable".
const char* render_isa();

// --------------------------------------------------- background model ----

/// Per-pixel running Gaussian background model: a pixel is foreground
/// when it deviates more than `threshold` sigmas from the learned mean;
/// background pixels update mean and variance with `learning_rate`.
class BackgroundModel {
 public:
  void init(std::size_t width, std::size_t height);

  /// Classify and update rows [r0, r1). The per-pixel state transition is
  /// independent across pixels, so band-parallel processing is exactly
  /// equivalent to whole-frame processing.
  void process_rows(const Pixel* frame, Pixel* mask, std::size_t r0,
                    std::size_t r1);

  std::size_t width() const noexcept { return width_; }

  /// The learned per-pixel mean and variance, row-major (read-only).
  std::span<const float> mean() const noexcept { return mean_; }
  std::span<const float> variance() const noexcept { return var_; }

  float learning_rate = 0.05f;
  float threshold = 3.0f;   ///< in standard deviations
  float min_variance = 16.0f;

 private:
  std::size_t width_ = 0;
  std::size_t height_ = 0;
  std::vector<float> mean_;
  std::vector<float> var_;
};

// -------------------------------------------------------- morphology ----

/// 3x3 binary erosion: out pixel is foreground iff the full 3x3
/// neighborhood (clamped at borders) is foreground. Any non-zero input
/// byte counts as foreground; the output is exactly 0 or 255. Allocates
/// nothing.
void erode3x3(const Pixel* in, Pixel* out, std::size_t width,
              std::size_t height);

/// Row-range variant for fork-join parallelization (reads neighbors
/// outside [r0, r1), writes only inside).
void erode3x3_rows(const Pixel* in, Pixel* out, std::size_t width,
                   std::size_t height, std::size_t r0, std::size_t r1);

/// 3x3 binary dilation: foreground iff any neighbor is foreground.
void dilate3x3(const Pixel* in, Pixel* out, std::size_t width,
               std::size_t height);
void dilate3x3_rows(const Pixel* in, Pixel* out, std::size_t width,
                    std::size_t height, std::size_t r0, std::size_t r1);

// --------------------------------------------------------------- CCL ----

struct Component {
  std::int64_t area = 0;
  double sum_x = 0;  ///< sum of pixel x coordinates (centroid = sum/area)
  double sum_y = 0;
  std::int32_t min_x = 0, max_x = 0, min_y = 0, max_y = 0;

  double cx() const { return sum_x / static_cast<double>(area); }
  double cy() const { return sum_y / static_cast<double>(area); }
};

/// Whole-image 4-connected component labeling; components with area below
/// `min_area` are dropped. Returned sorted by (cy, cx) for determinism.
std::vector<Component> connected_components(const Pixel* mask,
                                            std::size_t width,
                                            std::size_t height,
                                            std::int64_t min_area);

/// Output of labeling one horizontal band: local components plus, for
/// every pixel of the band's first and last row, the index of the local
/// component it belongs to (-1 for background). This is everything the
/// merge step needs to stitch bands together.
struct BandLabeling {
  std::size_t row_begin = 0;
  std::size_t row_end = 0;
  std::vector<Component> comps;
  std::vector<std::int32_t> top_ids;     ///< size = width
  std::vector<std::int32_t> bottom_ids;  ///< size = width
};

/// Label rows [r0, r1) of the mask (4-connectivity inside the band).
/// Components are numbered in raster order of their first pixel; the
/// labeling works on horizontal runs, so it allocates per run, not per
/// pixel.
BandLabeling label_band(const Pixel* mask, std::size_t width,
                        std::size_t r0, std::size_t r1);

/// Merge adjacent band labelings (bands must be contiguous and in order)
/// into whole-image components, equivalent to connected_components().
std::vector<Component> merge_bands(const std::vector<BandLabeling>& bands,
                                   std::size_t width,
                                   std::int64_t min_area);

// ----------------------------------------------------------- tracker ----

struct Track {
  int id = 0;
  double x = 0, y = 0;
  int age = 0;     ///< frames since creation
  int missed = 0;  ///< consecutive frames without a match
};

/// Greedy nearest-neighbor centroid tracker with track aging. Fully
/// deterministic: detections are consumed in their given order, candidate
/// tracks in ascending id order.
class Tracker {
 public:
  double max_distance = 48.0;
  int max_missed = 3;

  /// Consume centroid detections of one frame; returns live tracks.
  void update(const std::vector<std::array<double, 2>>& detections);

  const std::vector<Track>& tracks() const noexcept { return tracks_; }
  int total_tracks_created() const noexcept { return next_id_; }

 private:
  std::vector<Track> tracks_;
  int next_id_ = 0;
};

}  // namespace orwl::apps
