#include "apps/image.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "apps/isa.hpp"
#include "support/rng.hpp"

namespace orwl::apps {

// ------------------------------------------------------------ scene -----

Scene Scene::demo(std::size_t width, std::size_t height,
                  std::size_t num_objects, std::uint64_t seed) {
  if (width < 32 || height < 32) {
    throw std::invalid_argument("Scene::demo: frame too small");
  }
  Scene s;
  s.width = width;
  s.height = height;
  s.noise_seed = seed;
  support::SplitMix64 rng(seed);
  for (std::size_t i = 0; i < num_objects; ++i) {
    SceneObject o;
    o.size = 8 + rng.below(std::min<std::uint64_t>(24, width / 8));
    o.x = static_cast<double>(rng.below(width - o.size));
    o.y = static_cast<double>(rng.below(height - o.size));
    o.vx = 1.0 + rng.uniform() * 2.0;
    o.vy = 0.5 + rng.uniform() * 1.5;
    o.intensity = static_cast<Pixel>(200 + rng.below(56));
    s.objects.push_back(o);
  }
  return s;
}

namespace {

// Every helper of the background texture is always inlined, so each of
// the two entry points below compiles its own copy under its own target
// ISA (as apps::dgemm does).
#define ORWL_RENDER_INLINE [[gnu::always_inline]] inline

/// Deterministic per-(frame,pixel) noise in [-3, 3]; `key` is the frame's
/// share of the hash, seed ^ f * 0x9e3779b97f4a7c15.
ORWL_RENDER_INLINE int pixel_noise(std::uint64_t key, std::uint64_t idx) {
  std::uint64_t h = key ^ (idx * 0xbf58476d1ce4e5b9ULL);
  h ^= h >> 31;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 29;
  // h % 7 without a 64-bit division, which no vector unit has: 2^24 is
  // 1 mod 7, so h and the sum of its three 24-bit digits leave the same
  // remainder, and the sum (below 2^26) divides in a 32-bit lane.
  const auto digits = static_cast<std::uint32_t>(
      (h & 0xFFFFFF) + ((h >> 24) & 0xFFFFFF) + (h >> 48));
  return static_cast<int>(digits % 7) - 3;
}

ORWL_RENDER_INLINE Pixel clamp_pixel(int v) {
  return static_cast<Pixel>(std::clamp(v, 0, 255));
}

/// The textured, noisy background of a whole frame: a mild diagonal
/// gradient pattern plus the per-pixel noise.
ORWL_RENDER_INLINE void render_background(Pixel* __restrict out,
                                          std::size_t width,
                                          std::size_t height,
                                          std::uint64_t key) {
  for (std::size_t y = 0; y < height; ++y) {
    Pixel* __restrict row = out + y * width;
    const std::size_t idx0 = y * width;
    for (std::size_t x = 0; x < width; ++x) {
      const int base = 70 + static_cast<int>((x / 16 + y / 16) % 4) * 8;
      row[x] = clamp_pixel(base + pixel_noise(key, idx0 + x));
    }
  }
}

#undef ORWL_RENDER_INLINE

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("avx2"))) void background_avx2(Pixel* out,
                                                     std::size_t width,
                                                     std::size_t height,
                                                     std::uint64_t key) {
  render_background(out, width, height, key);
}
#endif

void background_portable(Pixel* out, std::size_t width, std::size_t height,
                         std::uint64_t key) {
  render_background(out, width, height, key);
}

std::uint64_t frame_key(std::uint64_t seed, std::size_t f) {
  return seed ^ (f * 0x9e3779b97f4a7c15ULL);
}

/// The moving objects of frame f, drawn over its background.
void draw_objects(const Scene& s, std::size_t f, Pixel* out) {
  const auto pos = s.positions(f);
  for (std::size_t i = 0; i < s.objects.size(); ++i) {
    const auto& o = s.objects[i];
    const std::size_t x0 = static_cast<std::size_t>(pos[i][0]);
    const std::size_t y0 = static_cast<std::size_t>(pos[i][1]);
    for (std::size_t dy = 0; dy < o.size && y0 + dy < s.height; ++dy) {
      for (std::size_t dx = 0; dx < o.size && x0 + dx < s.width; ++dx) {
        out[(y0 + dy) * s.width + x0 + dx] = o.intensity;
      }
    }
  }
}

}  // namespace

const char* render_isa() {
  return cpu_has_avx2(/*fma=*/false) ? "avx2" : "portable";
}

std::vector<std::array<double, 2>> Scene::positions(std::size_t f) const {
  std::vector<std::array<double, 2>> out;
  out.reserve(objects.size());
  for (const auto& o : objects) {
    // Linear motion with wrap-around.
    const double span_x = static_cast<double>(width - o.size);
    const double span_y = static_cast<double>(height - o.size);
    double x = std::fmod(o.x + o.vx * static_cast<double>(f), span_x);
    double y = std::fmod(o.y + o.vy * static_cast<double>(f), span_y);
    if (x < 0) x += span_x;
    if (y < 0) y += span_y;
    out.push_back({x, y});
  }
  return out;
}

void Scene::render(std::size_t f, Pixel* out) const {
#if defined(__x86_64__) || defined(__i386__)
  if (cpu_has_avx2(/*fma=*/false)) {
    background_avx2(out, width, height, frame_key(noise_seed, f));
    draw_objects(*this, f, out);
    return;
  }
#endif
  render_portable(f, out);
}

void Scene::render_portable(std::size_t f, Pixel* out) const {
  background_portable(out, width, height, frame_key(noise_seed, f));
  draw_objects(*this, f, out);
}

// --------------------------------------------------- background model ----

void BackgroundModel::init(std::size_t width, std::size_t height) {
  width_ = width;
  height_ = height;
  mean_.assign(width * height, 80.0f);   // near the background level
  var_.assign(width * height, 225.0f);   // sigma 15: conservative start
}

void BackgroundModel::process_rows(const Pixel* frame, Pixel* mask,
                                   std::size_t r0, std::size_t r1) {
  if (r1 > height_) throw std::out_of_range("BackgroundModel: bad rows");
  // Locals, not members: a Pixel store may alias any member, which would
  // reload them after every pixel and keep the loop scalar. The update is
  // a select rather than a conditional store, with the order of
  // operations of `mean += lr * d; var += lr * (d * d - var);
  // var = max(var, min_var)` on background pixels, so the vectorised
  // loop computes the same floats.
  const std::size_t end = r1 * width_;
  float* const mean = mean_.data();
  float* const var = var_.data();
  const float lr = learning_rate;
  const float thr = threshold;
  const float min_var = min_variance;
  for (std::size_t idx = r0 * width_; idx < end; ++idx) {
    const float m = mean[idx];
    const float v = var[idx];
    const float d = static_cast<float>(frame[idx]) - m;
    const bool fg = std::fabs(d) > thr * std::sqrt(v);
    mask[idx] = fg ? kForeground : kBackground;
    mean[idx] = fg ? m : m + lr * d;
    var[idx] = fg ? v : std::max(v + lr * (d * d - v), min_var);
  }
}

// -------------------------------------------------------- morphology ----

namespace {

// A pixel's 3x3 AND (erosion) is "the minimum of its clamped
// neighbourhood is non-zero"; its OR (dilation) is "the maximum is
// non-zero". So each output row is a byte min/max over three clamped input
// rows and three columns, which the compiler vectorises; only the first
// and last column need their clamped neighbours handled apart.
template <bool Erode>
inline Pixel pick(Pixel a, Pixel b) {
  return Erode ? std::min(a, b) : std::max(a, b);
}

inline Pixel binarize(Pixel v) {
  return v != kBackground ? kForeground : kBackground;
}

template <bool Erode>
void morph_row(const Pixel* __restrict above, const Pixel* __restrict row,
               const Pixel* __restrict below, Pixel* __restrict out,
               std::size_t w) {
  auto col = [&](std::size_t x) {
    return pick<Erode>(pick<Erode>(above[x], row[x]), below[x]);
  };
  if (w == 1) {
    out[0] = binarize(col(0));
    return;
  }
  out[0] = binarize(pick<Erode>(col(0), col(1)));
  for (std::size_t x = 1; x + 1 < w; ++x) {
    out[x] = binarize(pick<Erode>(pick<Erode>(col(x - 1), col(x)),
                                  col(x + 1)));
  }
  out[w - 1] = binarize(pick<Erode>(col(w - 2), col(w - 1)));
}

template <bool Erode>
void morph_rows(const Pixel* in, Pixel* out, std::size_t w, std::size_t h,
                std::size_t r0, std::size_t r1) {
  if (w == 0) return;
  for (std::size_t y = r0; y < r1; ++y) {
    const std::size_t ylo = y == 0 ? 0 : y - 1;
    const std::size_t yhi = y + 1 >= h ? h - 1 : y + 1;
    morph_row<Erode>(in + ylo * w, in + y * w, in + yhi * w, out + y * w, w);
  }
}

}  // namespace

void erode3x3(const Pixel* in, Pixel* out, std::size_t w, std::size_t h) {
  morph_rows<true>(in, out, w, h, 0, h);
}
void erode3x3_rows(const Pixel* in, Pixel* out, std::size_t w,
                   std::size_t h, std::size_t r0, std::size_t r1) {
  morph_rows<true>(in, out, w, h, r0, r1);
}
void dilate3x3(const Pixel* in, Pixel* out, std::size_t w, std::size_t h) {
  morph_rows<false>(in, out, w, h, 0, h);
}
void dilate3x3_rows(const Pixel* in, Pixel* out, std::size_t w,
                    std::size_t h, std::size_t r0, std::size_t r1) {
  morph_rows<false>(in, out, w, h, r0, r1);
}

// --------------------------------------------------------------- CCL ----

namespace {

/// Union-find over dense int32 ids.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  /// Append one singleton entry (id = previous size).
  void add() { parent_.push_back(static_cast<std::int32_t>(parent_.size())); }
  std::int32_t find(std::int32_t a) {
    while (parent_[static_cast<std::size_t>(a)] != a) {
      parent_[static_cast<std::size_t>(a)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(a)])];
      a = parent_[static_cast<std::size_t>(a)];
    }
    return a;
  }
  void unite(std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[static_cast<std::size_t>(std::max(a, b))] =
        std::min(a, b);
  }

 private:
  std::vector<std::int32_t> parent_;
};

void sort_components(std::vector<Component>& comps) {
  std::sort(comps.begin(), comps.end(),
            [](const Component& a, const Component& b) {
              if (a.cy() != b.cy()) return a.cy() < b.cy();
              if (a.cx() != b.cx()) return a.cx() < b.cx();
              return a.area < b.area;
            });
}

}  // namespace

namespace {

/// One horizontal run of foreground pixels: row y (band-relative),
/// columns [x0, x1).
struct Run {
  std::int32_t y, x0, x1;
};

/// First index >= x in [x, width) whose byte is foreground (width when
/// none). Skips eight background bytes at a time.
inline std::size_t next_foreground(const Pixel* row, std::size_t x,
                                   std::size_t width) {
  while (x + 8 <= width) {
    std::uint64_t word;
    std::memcpy(&word, row + x, sizeof word);
    if (word != 0) break;
    x += 8;
  }
  while (x < width && row[x] == kBackground) ++x;
  return x;
}

}  // namespace

BandLabeling label_band(const Pixel* mask, std::size_t width,
                        std::size_t r0, std::size_t r1) {
  if (r1 <= r0) throw std::invalid_argument("label_band: empty band");
  const std::size_t rows = r1 - r0;
  // First pass: label horizontal runs. A run joins every run of the
  // previous row it overlaps in at least one column, which is exactly
  // 4-connectivity; one union-find entry per run, not per pixel.
  std::vector<Run> runs;
  std::size_t prev_begin = 0;
  std::size_t prev_end = 0;
  UnionFind uf(0);
  for (std::size_t y = 0; y < rows; ++y) {
    const Pixel* row = mask + (r0 + y) * width;
    const std::size_t row_begin = runs.size();
    std::size_t above = prev_begin;  // first previous run that may overlap
    for (std::size_t x = next_foreground(row, 0, width); x < width;
         x = next_foreground(row, x, width)) {
      const std::size_t x0 = x;
      while (x < width && row[x] != kBackground) ++x;
      const auto id = static_cast<std::int32_t>(runs.size());
      runs.push_back({static_cast<std::int32_t>(y),
                      static_cast<std::int32_t>(x0),
                      static_cast<std::int32_t>(x)});
      uf.add();
      while (above < prev_end &&
             runs[above].x1 <= static_cast<std::int32_t>(x0)) {
        ++above;
      }
      for (std::size_t k = above;
           k < prev_end && runs[k].x0 < static_cast<std::int32_t>(x); ++k) {
        uf.unite(id, static_cast<std::int32_t>(k));
      }
    }
    prev_begin = row_begin;
    prev_end = runs.size();
  }
  // Second pass: number the components in raster order of their first
  // run (= of their first pixel) and accumulate per-run stats. The sums
  // are exact integers in a double, so their order does not matter.
  BandLabeling out;
  out.row_begin = r0;
  out.row_end = r1;
  out.top_ids.assign(width, -1);
  out.bottom_ids.assign(width, -1);
  std::vector<std::int32_t> root_to_comp(runs.size(), -1);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const Run& r = runs[i];
    const std::int32_t root = uf.find(static_cast<std::int32_t>(i));
    std::int32_t comp = root_to_comp[static_cast<std::size_t>(root)];
    const auto y = static_cast<std::int32_t>(r0) + r.y;
    if (comp < 0) {
      comp = static_cast<std::int32_t>(out.comps.size());
      root_to_comp[static_cast<std::size_t>(root)] = comp;
      Component c;
      c.min_x = r.x0;
      c.max_x = r.x1 - 1;
      c.min_y = c.max_y = y;
      out.comps.push_back(c);
    }
    Component& c = out.comps[static_cast<std::size_t>(comp)];
    const std::int64_t len = r.x1 - r.x0;
    c.area += len;
    c.sum_x += static_cast<double>(
        (static_cast<std::int64_t>(r.x0) + r.x1 - 1) * len / 2);
    c.sum_y += static_cast<double>(static_cast<std::int64_t>(y) * len);
    c.min_x = std::min(c.min_x, r.x0);
    c.max_x = std::max(c.max_x, r.x1 - 1);
    c.max_y = y;  // runs arrive in row order
    if (r.y == 0) {
      std::fill(out.top_ids.begin() + r.x0, out.top_ids.begin() + r.x1, comp);
    }
    if (static_cast<std::size_t>(r.y) + 1 == rows) {
      std::fill(out.bottom_ids.begin() + r.x0, out.bottom_ids.begin() + r.x1,
                comp);
    }
  }
  return out;
}

std::vector<Component> merge_bands(const std::vector<BandLabeling>& bands,
                                   std::size_t width,
                                   std::int64_t min_area) {
  // Global component ids: per band offset + local index.
  std::vector<std::size_t> offset(bands.size() + 1, 0);
  for (std::size_t b = 0; b < bands.size(); ++b) {
    offset[b + 1] = offset[b] + bands[b].comps.size();
    if (b > 0 && bands[b].row_begin != bands[b - 1].row_end) {
      throw std::invalid_argument("merge_bands: bands not contiguous");
    }
  }
  UnionFind uf(static_cast<std::size_t>(offset.back()));
  for (std::size_t b = 0; b + 1 < bands.size(); ++b) {
    const auto& lower = bands[b].bottom_ids;   // last row of band b
    const auto& upper = bands[b + 1].top_ids;  // first row of band b+1
    for (std::size_t x = 0; x < width; ++x) {
      if (lower[x] >= 0 && upper[x] >= 0) {
        uf.unite(
            static_cast<std::int32_t>(offset[b]) + lower[x],
            static_cast<std::int32_t>(offset[b + 1]) + upper[x]);
      }
    }
  }
  // Accumulate merged stats.
  std::vector<std::int32_t> root_to_comp(offset.back(), -1);
  std::vector<Component> merged;
  for (std::size_t b = 0; b < bands.size(); ++b) {
    for (std::size_t k = 0; k < bands[b].comps.size(); ++k) {
      const std::int32_t gid = static_cast<std::int32_t>(offset[b] + k);
      const std::int32_t root = uf.find(gid);
      std::int32_t comp = root_to_comp[static_cast<std::size_t>(root)];
      const Component& src = bands[b].comps[k];
      if (comp < 0) {
        comp = static_cast<std::int32_t>(merged.size());
        root_to_comp[static_cast<std::size_t>(root)] = comp;
        merged.push_back(src);
        continue;
      }
      Component& dst = merged[static_cast<std::size_t>(comp)];
      dst.area += src.area;
      dst.sum_x += src.sum_x;
      dst.sum_y += src.sum_y;
      dst.min_x = std::min(dst.min_x, src.min_x);
      dst.max_x = std::max(dst.max_x, src.max_x);
      dst.min_y = std::min(dst.min_y, src.min_y);
      dst.max_y = std::max(dst.max_y, src.max_y);
    }
  }
  std::erase_if(merged,
                [&](const Component& c) { return c.area < min_area; });
  sort_components(merged);
  return merged;
}

std::vector<Component> connected_components(const Pixel* mask,
                                            std::size_t width,
                                            std::size_t height,
                                            std::int64_t min_area) {
  std::vector<BandLabeling> one;
  one.push_back(label_band(mask, width, 0, height));
  return merge_bands(one, width, min_area);
}

// ----------------------------------------------------------- tracker ----

void Tracker::update(const std::vector<std::array<double, 2>>& detections) {
  std::vector<bool> used(detections.size(), false);
  // Match existing tracks (ascending id = insertion order) greedily.
  for (auto& t : tracks_) {
    double best = max_distance;
    std::size_t pick = detections.size();
    for (std::size_t d = 0; d < detections.size(); ++d) {
      if (used[d]) continue;
      const double dx = detections[d][0] - t.x;
      const double dy = detections[d][1] - t.y;
      const double dist = std::sqrt(dx * dx + dy * dy);
      if (dist < best) {
        best = dist;
        pick = d;
      }
    }
    if (pick < detections.size()) {
      used[pick] = true;
      t.x = detections[pick][0];
      t.y = detections[pick][1];
      t.missed = 0;
    } else {
      ++t.missed;
    }
    ++t.age;
  }
  // Expire stale tracks.
  std::erase_if(tracks_,
                [&](const Track& t) { return t.missed > max_missed; });
  // Open new tracks for unmatched detections.
  for (std::size_t d = 0; d < detections.size(); ++d) {
    if (used[d]) continue;
    Track t;
    t.id = next_id_++;
    t.x = detections[d][0];
    t.y = detections[d][1];
    tracks_.push_back(t);
  }
}

}  // namespace orwl::apps
