#include "runtime/comm_meter.hpp"

#include <algorithm>
#include <new>

namespace orwl::rt {

namespace {

constexpr std::size_t kCellsPerLine = 64 / sizeof(std::atomic<std::uint64_t>);

std::size_t padded_stride(std::size_t cells) {
  return (cells + kCellsPerLine - 1) / kCellsPerLine * kCellsPerLine;
}

}  // namespace

CommMeter::CommMeter(std::size_t num_nodes, std::size_t num_tasks,
                     const std::vector<Arena*>& arenas)
    : tasks_(num_tasks),
      nodes_(std::max<std::size_t>(1, num_nodes)),
      stride_(padded_stride(num_tasks * num_tasks)),
      counters_(new NodeCounters[nodes_]) {
  banks_.reserve(nodes_);
  for (std::size_t n = 0; n < nodes_; ++n) {
    Arena* arena = n < arenas.size() && arenas[n] ? arenas[n]
                                                  : &Arena::runtime_default();
    void* mem = arena->allocate(stride_ * sizeof(std::atomic<std::uint64_t>),
                                /*align=*/64);
    auto* bank = static_cast<std::atomic<std::uint64_t>*>(mem);
    for (std::size_t i = 0; i < stride_; ++i) {
      new (&bank[i]) std::atomic<std::uint64_t>(0);
    }
    banks_.push_back(bank);
  }
}

CommMeter::~CommMeter() {
  for (auto* bank : banks_) Arena::deallocate(bank);
}

void CommMeter::record(std::size_t node, TaskId from, TaskId to,
                       std::uint64_t bytes, bool remote) noexcept {
  if (from >= tasks_ || to >= tasks_ || from == to) return;
  if (node >= nodes_) node = 0;
  cell(node, from, to)
      .fetch_add(std::max<std::uint64_t>(1, bytes),
                 std::memory_order_relaxed);
  counters_[node].handoffs.fetch_add(1, std::memory_order_relaxed);
  if (remote) {
    counters_[node].remote.fetch_add(1, std::memory_order_relaxed);
  }
}

double CommMeter::harvest(tm::CommMatrix& m, double decay) {
  tm::CommMatrix delta(tasks_);
  double total = 0.0;
  for (std::size_t i = 0; i < tasks_; ++i) {
    for (std::size_t j = i + 1; j < tasks_; ++j) {
      std::uint64_t v = 0;
      for (std::size_t n = 0; n < nodes_; ++n) {
        v += cell(n, i, j).exchange(0, std::memory_order_relaxed);
        v += cell(n, j, i).exchange(0, std::memory_order_relaxed);
      }
      if (v != 0) {
        delta.set(i, j, static_cast<double>(v));
        total += static_cast<double>(v);
      }
    }
  }
  m.decay_accumulate(delta, decay);
  return total;
}

std::uint64_t CommMeter::handoffs() const noexcept {
  std::uint64_t n = 0;
  for (std::size_t b = 0; b < nodes_; ++b) {
    n += counters_[b].handoffs.load(std::memory_order_relaxed);
  }
  return n;
}

std::uint64_t CommMeter::remote_handoffs() const noexcept {
  std::uint64_t n = 0;
  for (std::size_t b = 0; b < nodes_; ++b) {
    n += counters_[b].remote.load(std::memory_order_relaxed);
  }
  return n;
}

}  // namespace orwl::rt
