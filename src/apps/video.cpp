#include "apps/video.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "apps/image.hpp"

namespace orwl::apps {

VideoParams video_hd() {
  VideoParams p;
  p.width = 1280;
  p.height = 720;
  return p;
}
VideoParams video_full_hd() {
  VideoParams p;
  p.width = 1920;
  p.height = 1080;
  return p;
}
VideoParams video_4k() {
  VideoParams p;
  p.width = 3840;
  p.height = 2160;
  return p;
}

namespace {

using orwl::split_range;

// ---------------------- location serialization PODs ----------------------

constexpr std::size_t kMaxBandComponents = 1024;
constexpr std::size_t kMaxDetections = 256;
constexpr std::size_t kMaxTracks = 256;

struct CompRecord {
  std::int64_t area;
  double sum_x, sum_y;
  std::int32_t min_x, max_x, min_y, max_y;
};
static_assert(std::is_trivially_copyable_v<CompRecord>);

struct CclBandHeader {
  std::int32_t num_components;
  std::int32_t row_begin;
  std::int32_t row_end;
  std::int32_t pad;
};
static_assert(std::is_trivially_copyable_v<CclBandHeader>);

std::size_t ccl_band_bytes(std::size_t width) {
  return sizeof(CclBandHeader) + kMaxBandComponents * sizeof(CompRecord) +
         2 * width * sizeof(std::int32_t);
}

void serialize_band(const BandLabeling& band, std::size_t width,
                    std::byte* out) {
  if (band.comps.size() > kMaxBandComponents) {
    throw std::runtime_error("video: too many components in one band");
  }
  CclBandHeader hdr{static_cast<std::int32_t>(band.comps.size()),
                    static_cast<std::int32_t>(band.row_begin),
                    static_cast<std::int32_t>(band.row_end), 0};
  std::memcpy(out, &hdr, sizeof hdr);
  std::byte* p = out + sizeof hdr;
  for (const Component& c : band.comps) {
    const CompRecord rec{c.area,  c.sum_x, c.sum_y, c.min_x,
                         c.max_x, c.min_y, c.max_y};
    std::memcpy(p, &rec, sizeof rec);
    p += sizeof rec;
  }
  p = out + sizeof hdr + kMaxBandComponents * sizeof(CompRecord);
  std::memcpy(p, band.top_ids.data(), width * sizeof(std::int32_t));
  std::memcpy(p + width * sizeof(std::int32_t), band.bottom_ids.data(),
              width * sizeof(std::int32_t));
}

BandLabeling deserialize_band(const std::byte* in, std::size_t width) {
  CclBandHeader hdr;
  std::memcpy(&hdr, in, sizeof hdr);
  BandLabeling band;
  band.row_begin = static_cast<std::size_t>(hdr.row_begin);
  band.row_end = static_cast<std::size_t>(hdr.row_end);
  const std::byte* p = in + sizeof hdr;
  band.comps.resize(static_cast<std::size_t>(hdr.num_components));
  for (auto& c : band.comps) {
    CompRecord rec;
    std::memcpy(&rec, p, sizeof rec);
    p += sizeof rec;
    c.area = rec.area;
    c.sum_x = rec.sum_x;
    c.sum_y = rec.sum_y;
    c.min_x = rec.min_x;
    c.max_x = rec.max_x;
    c.min_y = rec.min_y;
    c.max_y = rec.max_y;
  }
  p = in + sizeof hdr + kMaxBandComponents * sizeof(CompRecord);
  band.top_ids.resize(width);
  band.bottom_ids.resize(width);
  std::memcpy(band.top_ids.data(), p, width * sizeof(std::int32_t));
  std::memcpy(band.bottom_ids.data(), p + width * sizeof(std::int32_t),
              width * sizeof(std::int32_t));
  return band;
}

struct DetectionBlock {
  std::int32_t count;
  std::int32_t pad;
  struct Det {
    double x, y;
    std::int64_t area;
  } dets[kMaxDetections];
};
static_assert(std::is_trivially_copyable_v<DetectionBlock>);

struct TrackBlock {
  std::int32_t num_tracks;
  std::int32_t num_detections;
  std::int32_t tracks_created;
  std::int32_t pad;
  struct Rec {
    std::int32_t id;
    std::int32_t age;
    double x, y;
  } tracks[kMaxTracks];
};
static_assert(std::is_trivially_copyable_v<TrackBlock>);

// ------------------------------- stages -----------------------------------

std::vector<std::array<double, 2>> detections_to_centroids(
    const std::vector<Component>& comps) {
  std::vector<std::array<double, 2>> out;
  out.reserve(comps.size());
  for (const auto& c : comps) out.push_back({c.cx(), c.cy()});
  return out;
}

void fill_result_from_track_block(const TrackBlock& tb, VideoResult& res) {
  res.total_detections += static_cast<std::size_t>(tb.num_detections);
  res.detections_per_frame.push_back(tb.num_detections);
  res.final_track_count = static_cast<std::size_t>(tb.num_tracks);
  res.total_tracks_created = static_cast<std::size_t>(tb.tracks_created);
  res.final_track_positions.clear();
  for (std::int32_t i = 0; i < tb.num_tracks; ++i) {
    res.final_track_positions.push_back({tb.tracks[i].x, tb.tracks[i].y});
  }
}

}  // namespace

// ------------------------------ sequential --------------------------------

VideoResult video_sequential(const VideoParams& params) {
  const std::size_t w = params.width;
  const std::size_t h = params.height;
  const Scene scene = Scene::demo(w, h, params.objects, params.seed);
  BackgroundModel model;
  model.init(w, h);
  Tracker tracker;

  std::vector<Pixel> frame(w * h), mask(w * h), eroded(w * h);
  std::vector<Pixel> dil_a(w * h), dil_b(w * h);

  VideoResult res;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t f = 0; f < params.frames; ++f) {
    scene.render(f, frame.data());
    model.process_rows(frame.data(), mask.data(), 0, h);
    erode3x3(mask.data(), eroded.data(), w, h);
    const Pixel* cur = eroded.data();
    for (std::size_t d = 0; d < params.dilates; ++d) {
      Pixel* out = (d % 2 == 0) ? dil_a.data() : dil_b.data();
      dilate3x3(cur, out, w, h);
      cur = out;
    }
    const auto comps = connected_components(cur, w, h, params.min_area);
    tracker.update(detections_to_centroids(comps));

    res.total_detections += comps.size();
    res.detections_per_frame.push_back(static_cast<int>(comps.size()));
  }
  res.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  res.frames = params.frames;
  res.final_track_count = tracker.tracks().size();
  res.total_tracks_created =
      static_cast<std::size_t>(tracker.total_tracks_created());
  for (const auto& t : tracker.tracks()) {
    res.final_track_positions.push_back({t.x, t.y});
  }
  return res;
}

// --------------------------------- ORWL -----------------------------------

namespace {

/// Declares the ORWL video program on the v2 builder and either reads
/// its communication matrix off the declarations (`matrix != nullptr`)
/// or builds and executes it. Every stage states what it owns, reads,
/// writes and streams up front, so the task-location graph — the
/// producer's FIFO channel included — exists before anything runs.
void run_video_program(const VideoParams& params, rt::ProgramOptions opts,
                       VideoResult* result, tm::CommMatrix* matrix,
                       rt::ProgramStats* stats = nullptr) {
  const std::size_t w = params.width;
  const std::size_t h = params.height;
  const std::size_t frames = params.frames;
  const Scene scene = Scene::demo(w, h, params.objects, params.seed);

  ProgramBuilder builder(params.num_tasks(), opts);

  // ---- producer ----------------------------------------------------------
  builder.task(params.producer_task())
      .fifo_out<Pixel[]>("frames", w * h, 2)
      .iterates(frames)
      .body([&scene](Task& task) {
        FifoOut<Pixel[]> out = task.fifo_out<Pixel[]>("frames");
        task.run_iterations([&](std::size_t f) {
          scene.render(f, out.begin_push().data());
          out.end_push();
        });
      });

  // ---- gmm splits --------------------------------------------------------
  for (std::size_t g = 0; g < params.gmm_splits; ++g) {
    const auto band = split_range(h, params.gmm_splits, g);
    const TaskId id = params.gmm_split_task(g);
    builder.task(id)
        .owns<Pixel[]>(band.size() * w, 0)
        .writes<Pixel[]>(loc(id, 0), 0)
        .fifo_in<Pixel[]>("frames")
        .iterates(frames)
        .body([&params, w, band, id](Task& task) {
          FifoIn<Pixel[]> frames_in = task.fifo_in<Pixel[]>("frames");
          WriteLink<Pixel[]> band_out = task.write_link<Pixel[]>(loc(id, 0));
          BackgroundModel model;  // private band state
          model.init(w, params.height);
          std::vector<Pixel> mask(w * params.height);  // band rows touched
          task.run_iterations([&](std::size_t) {
            auto in = frames_in.begin_pop();
            model.process_rows(in.data(), mask.data(), band.begin, band.end);
            frames_in.end_pop();
            WriteGuard<Pixel[]> sec(band_out);
            std::copy_n(mask.data() + band.begin * w, sec.size(), sec.data());
          });
        });
  }

  // ---- gmm merge ---------------------------------------------------------
  {
    TaskSpec& spec = builder.task(params.gmm_task());
    spec.owns<Pixel[]>(w * h, 0).writes<Pixel[]>(loc(params.gmm_task(), 0), 0);
    for (std::size_t g = 0; g < params.gmm_splits; ++g) {
      spec.reads<Pixel[]>(loc(params.gmm_split_task(g), 0), 1);
    }
    spec.iterates(frames).body([&params, w, h](Task& task) {
      WriteLink<Pixel[]> mask_out =
          task.write_link<Pixel[]>(loc(params.gmm_task(), 0));
      std::vector<ReadLink<Pixel[]>> bands_in;
      for (std::size_t g = 0; g < params.gmm_splits; ++g) {
        bands_in.push_back(
            task.read_link<Pixel[]>(loc(params.gmm_split_task(g), 0)));
      }
      task.run_iterations([&](std::size_t) {
        WriteGuard<Pixel[]> out(mask_out);
        for (std::size_t g = 0; g < params.gmm_splits; ++g) {
          const auto band = split_range(h, params.gmm_splits, g);
          ReadGuard<Pixel[]> in(bands_in[g]);
          std::copy(in.begin(), in.end(),
                    out.span().subspan(band.begin * w).begin());
        }
      });
    });
  }

  // ---- erode -------------------------------------------------------------
  builder.task(params.erode_task())
      .owns<Pixel[]>(w * h, 0)
      .reads<Pixel[]>(loc(params.gmm_task(), 0), 1)
      .writes<Pixel[]>(loc(params.erode_task(), 0), 0)
      .iterates(frames)
      .body([&params, w, h](Task& task) {
        ReadLink<Pixel[]> in =
            task.read_link<Pixel[]>(loc(params.gmm_task(), 0));
        WriteLink<Pixel[]> out =
            task.write_link<Pixel[]>(loc(params.erode_task(), 0));
        task.run_iterations([&](std::size_t) {
          ReadGuard<Pixel[]> sin(in);
          WriteGuard<Pixel[]> sout(out);
          erode3x3(sin.data(), sout.data(), w, h);
        });
      });

  // ---- dilate chain ------------------------------------------------------
  for (std::size_t d = 0; d < params.dilates; ++d) {
    const TaskId prev_task =
        d == 0 ? params.erode_task() : params.dilate_task(d - 1);
    const TaskId id = params.dilate_task(d);
    builder.task(id)
        .owns<Pixel[]>(w * h, 0)
        .reads<Pixel[]>(loc(prev_task, 0), 1)
        .writes<Pixel[]>(loc(id, 0), 0)
        .iterates(frames)
        .body([w, h, prev_task, id](Task& task) {
          ReadLink<Pixel[]> in = task.read_link<Pixel[]>(loc(prev_task, 0));
          WriteLink<Pixel[]> out = task.write_link<Pixel[]>(loc(id, 0));
          task.run_iterations([&](std::size_t) {
            ReadGuard<Pixel[]> sin(in);
            WriteGuard<Pixel[]> sout(out);
            dilate3x3(sin.data(), sout.data(), w, h);
          });
        });
  }

  // ---- ccl splits --------------------------------------------------------
  const TaskId last_dilate = params.dilate_task(params.dilates - 1);
  for (std::size_t c = 0; c < params.ccl_splits; ++c) {
    const auto band = split_range(h, params.ccl_splits, c);
    const TaskId id = params.ccl_split_task(c);
    builder.task(id)
        .owns<std::byte[]>(ccl_band_bytes(w), 0)
        .reads<Pixel[]>(loc(last_dilate, 0), 1)
        .writes<std::byte[]>(loc(id, 0), 0)
        .iterates(frames)
        .body([w, band, last_dilate, id](Task& task) {
          ReadLink<Pixel[]> in = task.read_link<Pixel[]>(loc(last_dilate, 0));
          WriteLink<std::byte[]> out =
              task.write_link<std::byte[]>(loc(id, 0));
          task.run_iterations([&](std::size_t) {
            BandLabeling labeled;
            {
              ReadGuard<Pixel[]> sin(in);
              labeled = label_band(sin.data(), w, band.begin, band.end);
            }
            WriteGuard<std::byte[]> sout(out);
            serialize_band(labeled, w, sout.data());
          });
        });
  }

  // ---- ccl merge ---------------------------------------------------------
  {
    TaskSpec& spec = builder.task(params.ccl_task());
    spec.owns<DetectionBlock>(0).writes<DetectionBlock>(
        loc(params.ccl_task(), 0), 0);
    for (std::size_t c = 0; c < params.ccl_splits; ++c) {
      spec.reads<std::byte[]>(loc(params.ccl_split_task(c), 0), 1);
    }
    spec.iterates(frames).body([&params, w](Task& task) {
      std::vector<ReadLink<std::byte[]>> bands_in;
      for (std::size_t c = 0; c < params.ccl_splits; ++c) {
        bands_in.push_back(
            task.read_link<std::byte[]>(loc(params.ccl_split_task(c), 0)));
      }
      WriteLink<DetectionBlock> out =
          task.write_link<DetectionBlock>(loc(params.ccl_task(), 0));
      task.run_iterations([&](std::size_t) {
        std::vector<BandLabeling> bands;
        for (std::size_t c = 0; c < params.ccl_splits; ++c) {
          ReadGuard<std::byte[]> sin(bands_in[c]);
          bands.push_back(deserialize_band(sin.data(), w));
        }
        const auto comps = merge_bands(bands, w, params.min_area);
        if (comps.size() > kMaxDetections) {
          throw std::runtime_error("video: too many detections");
        }
        WriteGuard<DetectionBlock> blk(out);
        blk->count = static_cast<std::int32_t>(comps.size());
        for (std::size_t i = 0; i < comps.size(); ++i) {
          blk->dets[i] = {comps[i].cx(), comps[i].cy(), comps[i].area};
        }
      });
    });
  }

  // ---- tracking ----------------------------------------------------------
  builder.task(params.tracking_task())
      .owns<TrackBlock>(0)
      .reads<DetectionBlock>(loc(params.ccl_task(), 0), 1)
      .writes<TrackBlock>(loc(params.tracking_task(), 0), 0)
      .iterates(frames)
      .body([&params](Task& task) {
        ReadLink<DetectionBlock> in =
            task.read_link<DetectionBlock>(loc(params.ccl_task(), 0));
        WriteLink<TrackBlock> out =
            task.write_link<TrackBlock>(loc(params.tracking_task(), 0));
        Tracker tracker;
        task.run_iterations([&](std::size_t) {
          std::vector<std::array<double, 2>> dets;
          std::int32_t ndet = 0;
          {
            ReadGuard<DetectionBlock> sin(in);
            ndet = sin->count;
            for (std::int32_t i = 0; i < sin->count; ++i) {
              dets.push_back({sin->dets[i].x, sin->dets[i].y});
            }
          }
          tracker.update(dets);
          WriteGuard<TrackBlock> blk(out);
          blk->num_detections = ndet;
          blk->num_tracks =
              static_cast<std::int32_t>(tracker.tracks().size());
          blk->tracks_created = tracker.total_tracks_created();
          for (std::size_t i = 0;
               i < tracker.tracks().size() && i < kMaxTracks; ++i) {
            const Track& t = tracker.tracks()[i];
            blk->tracks[i] = {t.id, t.age, t.x, t.y};
          }
        });
      });

  // ---- consumer ----------------------------------------------------------
  builder.task(params.consumer_task())
      .reads<TrackBlock>(loc(params.tracking_task(), 0), 1)
      .iterates(frames)
      .body([&params, result](Task& task) {
        ReadLink<TrackBlock> in =
            task.read_link<TrackBlock>(loc(params.tracking_task(), 0));
        task.run_iterations([&](std::size_t) {
          ReadGuard<TrackBlock> sin(in);
          if (result != nullptr) {
            fill_result_from_track_block(sin.ref(), *result);
          }
        });
      });

  if (matrix != nullptr) {
    // The declared graph IS the communication matrix: no build(), no
    // task executions, no thread spawns needed.
    *matrix = builder.comm_matrix();
    return;
  }

  Program prog = builder.build();
  const auto t0 = std::chrono::steady_clock::now();
  prog.run();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  if (result != nullptr) {
    result->frames = frames;
    result->seconds = secs;
  }
  if (stats != nullptr) {
    *stats = prog.stats();
  }
}

}  // namespace

VideoResult video_orwl(const VideoParams& params,
                       rt::ProgramOptions prog_opts,
                       rt::ProgramStats* stats_out) {
  VideoResult res;
  run_video_program(params, prog_opts, &res, nullptr, stats_out);
  return res;
}

tm::CommMatrix video_comm_matrix(const VideoParams& params) {
  tm::CommMatrix m;
  run_video_program(params, {}, nullptr, &m);
  return m;
}

std::vector<std::string> video_task_names(const VideoParams& params) {
  std::vector<std::string> names(params.num_tasks());
  names[params.producer_task()] = "producer";
  names[params.gmm_task()] = "gmm";
  names[params.erode_task()] = "erode";
  for (std::size_t d = 0; d < params.dilates; ++d) {
    names[params.dilate_task(d)] = "dilate";
  }
  names[params.ccl_task()] = "ccl";
  names[params.tracking_task()] = "tracking";
  names[params.consumer_task()] = "consumer";
  for (std::size_t g = 0; g < params.gmm_splits; ++g) {
    names[params.gmm_split_task(g)] = "gmm split";
  }
  for (std::size_t c = 0; c < params.ccl_splits; ++c) {
    names[params.ccl_split_task(c)] = "ccl split";
  }
  return names;
}

// ------------------------------ fork-join ---------------------------------

VideoResult video_forkjoin(const VideoParams& params,
                           pool::ThreadPool& pool) {
  const std::size_t w = params.width;
  const std::size_t h = params.height;
  const Scene scene = Scene::demo(w, h, params.objects, params.seed);
  BackgroundModel model;
  model.init(w, h);
  Tracker tracker;

  std::vector<Pixel> frame(w * h), mask(w * h), eroded(w * h);
  std::vector<Pixel> dil_a(w * h), dil_b(w * h);

  VideoResult res;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t f = 0; f < params.frames; ++f) {
    scene.render(f, frame.data());
    // Stage 1: background model, fork-join over row chunks.
    pool.parallel_chunks(0, h, [&](std::size_t, std::size_t r0,
                                   std::size_t r1) {
      model.process_rows(frame.data(), mask.data(), r0, r1);
    });
    // Stage 2: erode.
    pool.parallel_chunks(0, h, [&](std::size_t, std::size_t r0,
                                   std::size_t r1) {
      erode3x3_rows(mask.data(), eroded.data(), w, h, r0, r1);
    });
    // Stage 3: dilate chain.
    const Pixel* cur = eroded.data();
    for (std::size_t d = 0; d < params.dilates; ++d) {
      Pixel* out = (d % 2 == 0) ? dil_a.data() : dil_b.data();
      pool.parallel_chunks(0, h, [&](std::size_t, std::size_t r0,
                                     std::size_t r1) {
        dilate3x3_rows(cur, out, w, h, r0, r1);
      });
      cur = out;
    }
    // Stage 4: CCL, banded in parallel then merged.
    std::vector<BandLabeling> bands(params.ccl_splits);
    pool.parallel_for(0, params.ccl_splits, [&](std::size_t c) {
      const auto band = split_range(h, params.ccl_splits, c);
      bands[c] = label_band(cur, w, band.begin, band.end);
    });
    const auto comps = merge_bands(bands, w, params.min_area);
    // Stage 5: tracking (sequential).
    tracker.update(detections_to_centroids(comps));

    res.total_detections += comps.size();
    res.detections_per_frame.push_back(static_cast<int>(comps.size()));
  }
  res.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  res.frames = params.frames;
  res.final_track_count = tracker.tracks().size();
  res.total_tracks_created =
      static_cast<std::size_t>(tracker.total_tracks_created());
  for (const auto& t : tracker.tracks()) {
    res.final_track_positions.push_back({t.x, t.y});
  }
  return res;
}

}  // namespace orwl::apps
