// Untyped FIFO channels: a two-stage byte pipeline over fifo_out_bytes.
//
// A source task serializes variable-layout "packets" (a small header and
// a payload the consumer parses from the header) into an untyped channel
// of fixed-size frames; a sink task parses and checksums them. Nothing
// about the wire format is visible to the runtime — the channel moves
// `kFrameBytes` raw bytes per item ("orwl_fifo ... store a new version of
// output data intermediately", Sec. V-C), and both endpoints use the
// T = void byte view.
//
// The frame ring's bookkeeping, like all runtime-internal allocations,
// comes from the owning shard's NUMA-bound arena; run with
//
//   ./fifo_bytes_pipeline
//
// and the tail of the output shows the arena / futex counters the
// runtime kept while the pipeline ran.
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "orwl/orwl.hpp"

namespace {

constexpr std::size_t kFrames = 64;       // items pushed end to end
constexpr std::size_t kFrameBytes = 256;  // fixed wire size per item
constexpr std::size_t kDepth = 4;         // producer runs depth-1 ahead

// The application-level wire format — the runtime never sees it.
struct FrameHeader {
  std::uint32_t seq;
  std::uint32_t payload_bytes;
};

}  // namespace

int main() {
  using namespace orwl;

  ProgramBuilder builder(2);

  builder.task(0)
      .fifo_out_bytes("frames", kFrameBytes, kDepth)
      .body([](Task& task) {
        FifoOut<> out = task.fifo_out<>("frames");
        for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
          std::span<std::byte> frame = out.begin_push();
          FrameHeader h{seq, static_cast<std::uint32_t>(
                                 (seq * 13) % (kFrameBytes - sizeof(h)))};
          std::memcpy(frame.data(), &h, sizeof(h));
          for (std::uint32_t j = 0; j < h.payload_bytes; ++j) {
            frame[sizeof(h) + j] = static_cast<std::byte>((seq + j) & 0xFF);
          }
          out.end_push();
        }
      });

  builder.task(1).fifo_in<>("frames").body([](Task& task) {
    FifoIn<> in = task.fifo_in<>("frames");
    std::uint64_t checksum = 0;
    std::size_t parsed = 0;
    for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
      std::span<const std::byte> frame = in.begin_pop();
      FrameHeader h;
      std::memcpy(&h, frame.data(), sizeof(h));
      if (h.seq != seq) {
        std::fprintf(stderr, "frame %u arrived out of order (got %u)\n",
                     seq, h.seq);
        in.end_pop();
        continue;
      }
      for (std::uint32_t j = 0; j < h.payload_bytes; ++j) {
        checksum += static_cast<std::uint64_t>(frame[sizeof(h) + j]);
      }
      ++parsed;
      in.end_pop();
    }
    std::printf("sink: parsed %zu/%zu frames, payload checksum %llu\n",
                parsed, kFrames,
                static_cast<unsigned long long>(checksum));
  });

  Program program = builder.build();
  program.run();

  const auto& st = program.stats();
  std::printf("\nruntime memory / parking counters:\n");
  std::printf("  arena_bytes       = %llu\n",
              static_cast<unsigned long long>(st.arena_bytes));
  std::printf("  arena_refills     = %llu\n",
              static_cast<unsigned long long>(st.arena_refills));
  std::printf("  arena_node_misses = %llu\n",
              static_cast<unsigned long long>(st.arena_node_misses));
  std::printf("  futex_waits       = %llu\n",
              static_cast<unsigned long long>(st.futex_waits));
  std::printf("  futex_wakes       = %llu\n",
              static_cast<unsigned long long>(st.futex_wakes));
  return 0;
}
