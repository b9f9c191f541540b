#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "apps/image.hpp"
#include "support/rng.hpp"

namespace {

using namespace orwl::apps;

// ------------------------------------------------- reference kernels ----
// The straightforward per-pixel kernels the vectorised morphology and the
// run-based CCL replace. They stay here as the definition the fast
// kernels must match bit for bit (as dgemm_naive serves dgemm).

template <bool Erode>
void naive_morph_rows(const Pixel* in, Pixel* out, std::size_t w,
                      std::size_t h, std::size_t r0, std::size_t r1) {
  for (std::size_t y = r0; y < r1; ++y) {
    const std::size_t ylo = y == 0 ? 0 : y - 1;
    const std::size_t yhi = y + 1 >= h ? h - 1 : y + 1;
    for (std::size_t x = 0; x < w; ++x) {
      const std::size_t xlo = x == 0 ? 0 : x - 1;
      const std::size_t xhi = x + 1 >= w ? w - 1 : x + 1;
      bool acc = Erode;  // erosion: AND starts true; dilation: OR false
      for (std::size_t yy = ylo; yy <= yhi; ++yy) {
        for (std::size_t xx = xlo; xx <= xhi; ++xx) {
          const bool fg = in[yy * w + xx] != kBackground;
          acc = Erode ? (acc && fg) : (acc || fg);
        }
      }
      out[y * w + x] = acc ? kForeground : kBackground;
    }
  }
}

/// Pixel union-find labeling of rows [r0, r1): one entry per pixel,
/// components numbered in raster order of their first pixel.
BandLabeling naive_label_band(const Pixel* mask, std::size_t width,
                              std::size_t r0, std::size_t r1) {
  const std::size_t rows = r1 - r0;
  const std::size_t n = rows * width;
  std::vector<std::int32_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](std::int32_t a) {
    while (parent[static_cast<std::size_t>(a)] != a) {
      a = parent[static_cast<std::size_t>(a)];
    }
    return a;
  };
  auto unite = [&](std::int32_t a, std::int32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent[static_cast<std::size_t>(std::max(a, b))] =
        std::min(a, b);
  };
  std::vector<std::int32_t> label(n, -1);
  for (std::size_t y = 0; y < rows; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const std::size_t i = y * width + x;
      if (mask[(r0 + y) * width + x] == kBackground) continue;
      label[i] = static_cast<std::int32_t>(i);
      if (x > 0 && label[i - 1] >= 0) unite(label[i], label[i - 1]);
      if (y > 0 && label[i - width] >= 0) unite(label[i], label[i - width]);
    }
  }
  BandLabeling out;
  out.row_begin = r0;
  out.row_end = r1;
  std::vector<std::int32_t> root_to_comp(n, -1);
  for (std::size_t y = 0; y < rows; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      const std::size_t i = y * width + x;
      if (label[i] < 0) continue;
      const std::int32_t root = find(label[i]);
      std::int32_t comp = root_to_comp[static_cast<std::size_t>(root)];
      const auto xi = static_cast<std::int32_t>(x);
      const auto yi = static_cast<std::int32_t>(r0 + y);
      if (comp < 0) {
        comp = static_cast<std::int32_t>(out.comps.size());
        root_to_comp[static_cast<std::size_t>(root)] = comp;
        Component c;
        c.min_x = c.max_x = xi;
        c.min_y = c.max_y = yi;
        out.comps.push_back(c);
      }
      Component& c = out.comps[static_cast<std::size_t>(comp)];
      c.area += 1;
      c.sum_x += static_cast<double>(x);
      c.sum_y += static_cast<double>(r0 + y);
      c.min_x = std::min(c.min_x, xi);
      c.max_x = std::max(c.max_x, xi);
      c.min_y = std::min(c.min_y, yi);
      c.max_y = std::max(c.max_y, yi);
      label[i] = comp;
    }
  }
  out.top_ids.assign(label.begin(), label.begin() + width);
  out.bottom_ids.assign(label.end() - width, label.end());
  return out;
}

void expect_same_labeling(const BandLabeling& got, const BandLabeling& want,
                          const std::string& what) {
  EXPECT_EQ(got.row_begin, want.row_begin) << what;
  EXPECT_EQ(got.row_end, want.row_end) << what;
  ASSERT_EQ(got.comps.size(), want.comps.size()) << what;
  for (std::size_t i = 0; i < got.comps.size(); ++i) {
    const Component& g = got.comps[i];
    const Component& w = want.comps[i];
    EXPECT_EQ(g.area, w.area) << what << " comp " << i;
    // Exact: the sums are integers, so any summation order is bit-equal.
    EXPECT_EQ(g.sum_x, w.sum_x) << what << " comp " << i;
    EXPECT_EQ(g.sum_y, w.sum_y) << what << " comp " << i;
    EXPECT_EQ(g.min_x, w.min_x) << what << " comp " << i;
    EXPECT_EQ(g.max_x, w.max_x) << what << " comp " << i;
    EXPECT_EQ(g.min_y, w.min_y) << what << " comp " << i;
    EXPECT_EQ(g.max_y, w.max_y) << what << " comp " << i;
  }
  EXPECT_EQ(got.top_ids, want.top_ids) << what;
  EXPECT_EQ(got.bottom_ids, want.bottom_ids) << what;
}

// ------------------------------------------------------------ scene -----

TEST(Scene, DemoValidatesSize) {
  EXPECT_THROW(Scene::demo(8, 8, 1, 1), std::invalid_argument);
  const Scene s = Scene::demo(64, 48, 2, 1);
  EXPECT_EQ(s.objects.size(), 2u);
}

TEST(Scene, RenderIsDeterministic) {
  const Scene s = Scene::demo(64, 48, 2, 3);
  std::vector<Pixel> f1(64 * 48), f2(64 * 48);
  s.render(5, f1.data());
  s.render(5, f2.data());
  EXPECT_EQ(f1, f2);
}

TEST(Scene, ObjectsMove) {
  const Scene s = Scene::demo(64, 48, 1, 3);
  const auto p0 = s.positions(0);
  const auto p5 = s.positions(5);
  EXPECT_NE(p0[0], p5[0]);
}

TEST(Scene, ObjectPixelsAreBright) {
  const Scene s = Scene::demo(64, 48, 1, 4);
  std::vector<Pixel> f(64 * 48);
  s.render(0, f.data());
  const auto pos = s.positions(0);
  const auto& o = s.objects[0];
  const std::size_t cx = static_cast<std::size_t>(pos[0][0]) + o.size / 2;
  const std::size_t cy = static_cast<std::size_t>(pos[0][1]) + o.size / 2;
  EXPECT_EQ(f[cy * 64 + cx], o.intensity);
}

// --------------------------------------------------- background model ----

TEST(BackgroundModel, LearnsStaticBackground) {
  BackgroundModel m;
  m.init(32, 32);
  std::vector<Pixel> frame(32 * 32, 80), mask(32 * 32);
  for (int i = 0; i < 20; ++i) {
    m.process_rows(frame.data(), mask.data(), 0, 32);
  }
  // After convergence a static frame is all background.
  for (Pixel p : mask) EXPECT_EQ(p, kBackground);
}

TEST(BackgroundModel, DetectsBrightIntruder) {
  BackgroundModel m;
  m.init(32, 32);
  std::vector<Pixel> frame(32 * 32, 80), mask(32 * 32);
  for (int i = 0; i < 20; ++i) {
    m.process_rows(frame.data(), mask.data(), 0, 32);
  }
  frame[5 * 32 + 7] = 250;  // bright spot
  m.process_rows(frame.data(), mask.data(), 0, 32);
  EXPECT_EQ(mask[5 * 32 + 7], kForeground);
  EXPECT_EQ(mask[5 * 32 + 8], kBackground);
}

TEST(BackgroundModel, BandProcessingEqualsWholeFrame) {
  const Scene s = Scene::demo(64, 48, 2, 9);
  BackgroundModel whole, banded;
  whole.init(64, 48);
  banded.init(64, 48);
  std::vector<Pixel> frame(64 * 48), m1(64 * 48), m2(64 * 48);
  for (std::size_t f = 0; f < 6; ++f) {
    s.render(f, frame.data());
    whole.process_rows(frame.data(), m1.data(), 0, 48);
    for (std::size_t b = 0; b < 4; ++b) {
      banded.process_rows(frame.data(), m2.data(), b * 12, (b + 1) * 12);
    }
    EXPECT_EQ(m1, m2) << "frame " << f;
  }
}

TEST(BackgroundModel, RowBoundsChecked) {
  BackgroundModel m;
  m.init(8, 8);
  std::vector<Pixel> frame(64), mask(64);
  EXPECT_THROW(m.process_rows(frame.data(), mask.data(), 0, 9),
               std::out_of_range);
}

// -------------------------------------------------------- morphology ----

TEST(Morphology, ErodeRemovesThinFeatures) {
  // A single pixel vanishes under erosion.
  std::vector<Pixel> in(25, kBackground), out(25);
  in[12] = kForeground;  // center of 5x5
  erode3x3(in.data(), out.data(), 5, 5);
  for (Pixel p : out) EXPECT_EQ(p, kBackground);
}

TEST(Morphology, ErodeKeepsSolidCore) {
  // A 3x3 solid block keeps its center.
  std::vector<Pixel> in(25, kBackground), out(25);
  for (int y = 1; y <= 3; ++y) {
    for (int x = 1; x <= 3; ++x) in[y * 5 + x] = kForeground;
  }
  erode3x3(in.data(), out.data(), 5, 5);
  EXPECT_EQ(out[2 * 5 + 2], kForeground);
  EXPECT_EQ(out[1 * 5 + 1], kBackground);
}

TEST(Morphology, DilateGrowsByOne) {
  std::vector<Pixel> in(25, kBackground), out(25);
  in[12] = kForeground;
  dilate3x3(in.data(), out.data(), 5, 5);
  int fg = 0;
  for (Pixel p : out) fg += p == kForeground;
  EXPECT_EQ(fg, 9);
}

TEST(Morphology, DilateThenErodeRestoresSolidSquare) {
  std::vector<Pixel> in(100, kBackground), d(100), e(100);
  for (int y = 3; y < 7; ++y) {
    for (int x = 3; x < 7; ++x) in[y * 10 + x] = kForeground;
  }
  dilate3x3(in.data(), d.data(), 10, 10);
  erode3x3(d.data(), e.data(), 10, 10);
  EXPECT_EQ(in, e) << "closing a solid square is the identity";
}

TEST(Morphology, RowVariantMatchesWholeFrame) {
  const Scene s = Scene::demo(64, 48, 2, 5);
  std::vector<Pixel> frame(64 * 48), w1(64 * 48), w2(64 * 48);
  s.render(0, frame.data());
  // Threshold to binary.
  for (auto& p : frame) p = p > 100 ? kForeground : kBackground;
  erode3x3(frame.data(), w1.data(), 64, 48);
  for (std::size_t b = 0; b < 6; ++b) {
    erode3x3_rows(frame.data(), w2.data(), 64, 48, b * 8, (b + 1) * 8);
  }
  EXPECT_EQ(w1, w2);
  dilate3x3(frame.data(), w1.data(), 64, 48);
  for (std::size_t b = 0; b < 6; ++b) {
    dilate3x3_rows(frame.data(), w2.data(), 64, 48, b * 8, (b + 1) * 8);
  }
  EXPECT_EQ(w1, w2);
}

TEST(Morphology, MatchesNaiveOnRandomMasks) {
  // Every small width and height (the clamped borders are the special
  // cases), a full 640x360 frame, random row ranges, and input bytes
  // other than 0/255: only "non-zero" may count as foreground.
  orwl::support::SplitMix64 rng(25);
  std::vector<std::pair<std::size_t, std::size_t>> sizes;
  for (std::size_t w : {1u, 2u, 3u, 17u}) {
    for (std::size_t h : {1u, 2u, 3u, 17u}) sizes.emplace_back(w, h);
  }
  sizes.emplace_back(640, 360);
  for (const auto& [w, h] : sizes) {
    for (int round = 0; round < 6; ++round) {
      // Densities from sparse to dense so both kernels see both answers.
      const std::uint64_t zero_in_8 = 1 + static_cast<std::uint64_t>(round);
      std::vector<Pixel> in(w * h);
      for (auto& p : in) {
        p = rng.below(8) < zero_in_8
                ? kBackground
                : static_cast<Pixel>(1 + rng.below(255));
      }
      const std::size_t r0 = rng.below(h);
      const std::size_t r1 = r0 + 1 + rng.below(h - r0);
      for (const bool erode : {true, false}) {
        std::vector<Pixel> got(w * h, 7), want(w * h, 7);
        if (erode) {
          erode3x3_rows(in.data(), got.data(), w, h, r0, r1);
          naive_morph_rows<true>(in.data(), want.data(), w, h, r0, r1);
        } else {
          dilate3x3_rows(in.data(), got.data(), w, h, r0, r1);
          naive_morph_rows<false>(in.data(), want.data(), w, h, r0, r1);
        }
        ASSERT_EQ(got, want) << (erode ? "erode " : "dilate ") << w << "x"
                             << h << " rows [" << r0 << ", " << r1 << ")";
      }
    }
  }
}

// --------------------------------------------------------------- CCL ----

TEST(Ccl, LabelBandMatchesPixelReference) {
  auto check = [](const std::vector<Pixel>& mask, std::size_t w,
                  std::size_t h, const std::string& what) {
    // The whole mask, and every band that starts or ends on a border row.
    for (std::size_t r0 = 0; r0 < h; ++r0) {
      for (const std::size_t r1 : {r0 + 1, h}) {
        expect_same_labeling(
            label_band(mask.data(), w, r0, r1),
            naive_label_band(mask.data(), w, r0, r1),
            what + " rows [" + std::to_string(r0) + ", " +
                std::to_string(r1) + ")");
      }
    }
  };
  auto filled = [](std::size_t w, std::size_t h, auto fg) {
    std::vector<Pixel> m(w * h, kBackground);
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        if (fg(x, y)) m[y * w + x] = kForeground;
      }
    }
    return m;
  };
  // The most runs: every pixel its own component.
  check(filled(17, 9, [](auto x, auto y) { return (x + y) % 2 == 0; }), 17,
        9, "checkerboard");
  check(filled(13, 7, [](auto, auto) { return true; }), 13, 7, "full");
  check(filled(40, 1, [](auto x, auto) { return x % 5 != 2; }), 40, 1,
        "one row");
  check(filled(1, 23, [](auto, auto y) { return y % 4 != 3; }), 1, 23,
        "one column");
  // Runs that touch only at corners stay apart (4-connectivity).
  check(filled(12, 12,
               [](auto x, auto y) { return (x / 2) % 2 == y % 2; }),
        12, 12, "diagonal contacts");
  // Runs on the first and last rows, a U that joins late and a
  // staircase whose runs each overlap two runs of the row above.
  check(filled(24, 10,
               [](auto x, auto y) {
                 return y == 0 || y == 9 || x == 3 || x == 20 ||
                        (x >= 8 && x < 14 && (x + y) % 3 != 0);
               }),
        24, 10, "borders and joins");
  // Random masks: order of components, stats and boundary ids.
  orwl::support::SplitMix64 rng(11);
  for (int round = 0; round < 40; ++round) {
    const std::size_t w = 1 + rng.below(70);
    const std::size_t h = 1 + rng.below(20);
    const std::uint64_t density = 1 + rng.below(7);
    std::vector<Pixel> mask(w * h);
    for (auto& p : mask) {
      p = rng.below(8) < density ? static_cast<Pixel>(1 + rng.below(255))
                                 : kBackground;
    }
    check(mask, w, h, "random " + std::to_string(round));
  }
}


TEST(Ccl, SingleComponentStats) {
  std::vector<Pixel> mask(100, kBackground);
  for (int y = 2; y < 5; ++y) {
    for (int x = 3; x < 7; ++x) mask[y * 10 + x] = kForeground;
  }
  const auto comps = connected_components(mask.data(), 10, 10, 1);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].area, 12);
  EXPECT_DOUBLE_EQ(comps[0].cx(), 4.5);
  EXPECT_DOUBLE_EQ(comps[0].cy(), 3.0);
  EXPECT_EQ(comps[0].min_x, 3);
  EXPECT_EQ(comps[0].max_x, 6);
}

TEST(Ccl, DiagonalPixelsAreSeparate) {
  // 4-connectivity: diagonal neighbors are distinct components.
  std::vector<Pixel> mask(16, kBackground);
  mask[0] = kForeground;       // (0,0)
  mask[1 * 4 + 1] = kForeground;  // (1,1)
  const auto comps = connected_components(mask.data(), 4, 4, 1);
  EXPECT_EQ(comps.size(), 2u);
}

TEST(Ccl, MinAreaFilters) {
  std::vector<Pixel> mask(64, kBackground);
  mask[0] = kForeground;  // area 1
  for (int x = 3; x < 7; ++x) mask[4 * 8 + x] = kForeground;  // area 4
  EXPECT_EQ(connected_components(mask.data(), 8, 8, 1).size(), 2u);
  EXPECT_EQ(connected_components(mask.data(), 8, 8, 2).size(), 1u);
}

TEST(Ccl, UShapeIsOneComponent) {
  // A U-shape that merges only at the bottom: tests the union-find path.
  std::vector<Pixel> mask(8 * 8, kBackground);
  for (int y = 0; y < 6; ++y) {
    mask[y * 8 + 1] = kForeground;
    mask[y * 8 + 5] = kForeground;
  }
  for (int x = 1; x <= 5; ++x) mask[6 * 8 + x] = kForeground;
  const auto comps = connected_components(mask.data(), 8, 8, 1);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].area, 6 + 6 + 5);
}

TEST(Ccl, BandedMergeEqualsWholeImage) {
  // Property: banded labeling + merge == whole-image labeling, for a
  // busy random-ish mask.
  const Scene s = Scene::demo(96, 64, 4, 17);
  std::vector<Pixel> frame(96 * 64), mask(96 * 64);
  s.render(3, frame.data());
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = frame[i] > 95 ? kForeground : kBackground;
  }
  const auto whole = connected_components(mask.data(), 96, 64, 1);
  for (std::size_t nbands : {2u, 3u, 4u, 7u}) {
    std::vector<BandLabeling> bands;
    for (std::size_t b = 0; b < nbands; ++b) {
      const std::size_t r0 = b * 64 / nbands;
      const std::size_t r1 = (b + 1) * 64 / nbands;
      bands.push_back(label_band(mask.data(), 96, r0, r1));
    }
    const auto merged = merge_bands(bands, 96, 1);
    ASSERT_EQ(merged.size(), whole.size()) << nbands << " bands";
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].area, whole[i].area);
      EXPECT_DOUBLE_EQ(merged[i].cx(), whole[i].cx());
      EXPECT_DOUBLE_EQ(merged[i].cy(), whole[i].cy());
    }
  }
}

TEST(Ccl, ComponentSpanningAllBands) {
  // A vertical bar crossing every band boundary must merge into one.
  std::vector<Pixel> mask(16 * 16, kBackground);
  for (int y = 0; y < 16; ++y) mask[y * 16 + 8] = kForeground;
  std::vector<BandLabeling> bands;
  for (std::size_t b = 0; b < 4; ++b) {
    bands.push_back(label_band(mask.data(), 16, b * 4, (b + 1) * 4));
  }
  const auto merged = merge_bands(bands, 16, 1);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].area, 16);
}

TEST(Ccl, MergeRejectsGappyBands) {
  std::vector<Pixel> mask(64, kBackground);
  std::vector<BandLabeling> bands;
  bands.push_back(label_band(mask.data(), 8, 0, 3));
  bands.push_back(label_band(mask.data(), 8, 4, 8));  // gap: row 3-4
  EXPECT_THROW(merge_bands(bands, 8, 1), std::invalid_argument);
}

TEST(Ccl, EmptyMaskNoComponents) {
  std::vector<Pixel> mask(64, kBackground);
  EXPECT_TRUE(connected_components(mask.data(), 8, 8, 1).empty());
}

// ----------------------------------------------------------- tracker ----

TEST(Tracker, CreatesTracksForNewDetections) {
  Tracker t;
  t.update({{10, 10}, {50, 50}});
  EXPECT_EQ(t.tracks().size(), 2u);
  EXPECT_EQ(t.total_tracks_created(), 2);
}

TEST(Tracker, FollowsMovingDetection) {
  Tracker t;
  t.update({{10, 10}});
  const int id = t.tracks()[0].id;
  for (int f = 1; f <= 10; ++f) {
    t.update({{10.0 + f * 3.0, 10.0 + f * 2.0}});
    ASSERT_EQ(t.tracks().size(), 1u) << "frame " << f;
    EXPECT_EQ(t.tracks()[0].id, id) << "track identity lost";
  }
  EXPECT_DOUBLE_EQ(t.tracks()[0].x, 40.0);
  EXPECT_DOUBLE_EQ(t.tracks()[0].y, 30.0);
}

TEST(Tracker, FarDetectionOpensNewTrack) {
  Tracker t;
  t.max_distance = 20.0;
  t.update({{10, 10}});
  t.update({{200, 200}});
  // The old track missed once, a new track was created.
  EXPECT_EQ(t.tracks().size(), 2u);
  EXPECT_EQ(t.total_tracks_created(), 2);
}

TEST(Tracker, StaleTracksExpire)  {
  Tracker t;
  t.max_missed = 2;
  t.update({{10, 10}});
  for (int i = 0; i < 4; ++i) t.update({});
  EXPECT_TRUE(t.tracks().empty());
}

TEST(Tracker, TwoObjectsKeepIdentity) {
  Tracker t;
  t.update({{10, 10}, {100, 100}});
  const int id0 = t.tracks()[0].id;
  const int id1 = t.tracks()[1].id;
  // Objects approach each other but stay distinct.
  for (int f = 1; f <= 5; ++f) {
    t.update({{10.0 + f * 2.0, 10.0}, {100.0 - f * 2.0, 100.0}});
  }
  ASSERT_EQ(t.tracks().size(), 2u);
  EXPECT_EQ(t.tracks()[0].id, id0);
  EXPECT_EQ(t.tracks()[1].id, id1);
  EXPECT_DOUBLE_EQ(t.tracks()[0].x, 20.0);
  EXPECT_DOUBLE_EQ(t.tracks()[1].x, 90.0);
}

}  // namespace
