// The orwl_fifo primitive: a single-producer / single-consumer buffered
// channel built from locations and iterative handles.
//
// "An orwl_fifo primitive is used to store a new version of output data
// intermediately such that the lock for other readers/writers can quickly
// be released." (Sec. V-C)
//
// Implementation: `depth` consecutive locations of the producer task act
// as a ring of versioned buffers. The producer holds a write Handle2 on
// every slot (priority 0), the consumer a read Handle2 (priority 1); the
// per-slot FIFO alternation then allows the producer to run up to
// `depth - 1` items ahead of the consumer without blocking. The handles
// are declared on the builder (orwl::TaskSpec::fifo_out / fifo_in) and
// owned by the program; the endpoints here adopt() and drive them.
// Memory: the ring of handle pointers draws from the channel owner's
// queue arena, so a channel's metadata lives on the same NUMA node as
// its grant engine.
#pragma once

#include <memory>
#include <vector>

#include "runtime/arena.hpp"
#include "runtime/handle.hpp"

namespace orwl::rt {

class FifoProducer {
 public:
  /// Drive pre-declared handles: `handles` are the channel's write
  /// handles in ring order, already inserted (via
  /// Program::declare_insert by the v2 builder) and owned elsewhere for
  /// at least this object's lifetime. The producer may run depth-1
  /// items ahead.
  /// \throws std::invalid_argument for < 2 or unlinked handles;
  ///         std::logic_error when already linked.
  void adopt(std::vector<Handle2*> handles);

  /// Acquire the next slot for writing.
  /// \return The slot's buffer to fill; publish with end_push().
  std::span<std::byte> begin_push();

  /// Publish the slot written since begin_push().
  void end_push();

  std::size_t depth() const noexcept { return handles_.size(); }
  std::uint64_t pushed() const noexcept { return pushed_; }

 private:
  std::vector<Handle2*, ArenaAllocator<Handle2*>> handles_;  // ring order
  std::size_t next_ = 0;
  bool open_ = false;
  std::uint64_t pushed_ = 0;
};

class FifoConsumer {
 public:
  /// Drive pre-declared read handles in ring order (see
  /// FifoProducer::adopt).
  void adopt(std::vector<Handle2*> handles);

  /// Acquire the next item for reading.
  /// \return The slot's contents; release with end_pop().
  std::span<const std::byte> begin_pop();

  /// Release the slot read since begin_pop().
  void end_pop();

  std::size_t depth() const noexcept { return handles_.size(); }
  std::uint64_t popped() const noexcept { return popped_; }

 private:
  std::vector<Handle2*, ArenaAllocator<Handle2*>> handles_;  // ring order
  std::size_t next_ = 0;
  bool open_ = false;
  std::uint64_t popped_ = 0;
};

}  // namespace orwl::rt
