// Microbenchmark of the video pipeline's per-frame kernels (Sec. V-C) at
// 640x360, the size perfbench's video workload runs: scene rendering, the
// background model, erosion, dilation and band labeling. Each row reports
// `ms/frame`, the stage's cost per frame on one core. The inputs are the
// pipeline's own: frames of VideoParams' default scene and the mask the
// background model produces for them after it has learned the background.
#include "bench_util.hpp"

#include <vector>

#include "apps/image.hpp"
#include "apps/video.hpp"

namespace {

using orwl::apps::Pixel;

constexpr std::size_t kWidth = 640;
constexpr std::size_t kHeight = 360;
constexpr std::size_t kWarmFrames = 16;

void set_ms_per_frame(benchmark::State& state) {
  // An inverted rate of iterations / 1000 is milliseconds per call (the
  // console prints an "s" after every inverted rate; the JSON is bare).
  state.counters["ms/frame"] = benchmark::Counter(
      static_cast<double>(state.iterations()) / 1000.0,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

orwl::apps::Scene scene() {
  const orwl::apps::VideoParams p;
  return orwl::apps::Scene::demo(kWidth, kHeight, p.objects, p.seed);
}

/// The foreground mask of frame kWarmFrames, after the model has seen the
/// frames before it: what the erode stage reads in the pipeline.
std::vector<Pixel> video_mask() {
  const auto s = scene();
  orwl::apps::BackgroundModel model;
  model.init(kWidth, kHeight);
  std::vector<Pixel> frame(kWidth * kHeight), mask(kWidth * kHeight);
  for (std::size_t f = 0; f <= kWarmFrames; ++f) {
    s.render(f, frame.data());
    model.process_rows(frame.data(), mask.data(), 0, kHeight);
  }
  return mask;
}

void BM_Render(benchmark::State& state) {
  const auto s = scene();
  std::vector<Pixel> frame(kWidth * kHeight);
  std::size_t f = 0;
  for (auto _ : state) {
    s.render(f++, frame.data());
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  set_ms_per_frame(state);
}
BENCHMARK(BM_Render)->Unit(benchmark::kMillisecond);

void BM_BackgroundModel(benchmark::State& state) {
  // Cycle through pre-rendered frames so the timed loop is the model only.
  const auto s = scene();
  std::vector<std::vector<Pixel>> frames(kWarmFrames);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    frames[f].resize(kWidth * kHeight);
    s.render(f, frames[f].data());
  }
  orwl::apps::BackgroundModel model;
  model.init(kWidth, kHeight);
  std::vector<Pixel> mask(kWidth * kHeight);
  std::size_t f = 0;
  for (auto _ : state) {
    model.process_rows(frames[f++ % frames.size()].data(), mask.data(), 0,
                       kHeight);
    benchmark::DoNotOptimize(mask.data());
    benchmark::ClobberMemory();
  }
  set_ms_per_frame(state);
}
BENCHMARK(BM_BackgroundModel)->Unit(benchmark::kMillisecond);

template <auto Kernel>
void morphology(benchmark::State& state) {
  const auto mask = video_mask();
  std::vector<Pixel> out(kWidth * kHeight);
  for (auto _ : state) {
    Kernel(mask.data(), out.data(), kWidth, kHeight);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  set_ms_per_frame(state);
}

void BM_Erode(benchmark::State& state) {
  morphology<orwl::apps::erode3x3>(state);
}
BENCHMARK(BM_Erode)->Unit(benchmark::kMillisecond);

void BM_Dilate(benchmark::State& state) {
  morphology<orwl::apps::dilate3x3>(state);
}
BENCHMARK(BM_Dilate)->Unit(benchmark::kMillisecond);

void BM_LabelBand(benchmark::State& state) {
  // The pipeline's CCL input: the mask after erode and two dilates.
  const auto mask = video_mask();
  std::vector<Pixel> a(kWidth * kHeight), b(kWidth * kHeight);
  orwl::apps::erode3x3(mask.data(), a.data(), kWidth, kHeight);
  orwl::apps::dilate3x3(a.data(), b.data(), kWidth, kHeight);
  orwl::apps::dilate3x3(b.data(), a.data(), kWidth, kHeight);
  for (auto _ : state) {
    auto labeled = orwl::apps::label_band(a.data(), kWidth, 0, kHeight);
    benchmark::DoNotOptimize(labeled.comps.data());
  }
  set_ms_per_frame(state);
}
BENCHMARK(BM_LabelBand)->Unit(benchmark::kMillisecond);

}  // namespace

ORWL_BENCH_MAIN()
