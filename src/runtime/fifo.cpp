#include "runtime/fifo.hpp"

#include <stdexcept>
#include <string>

namespace orwl::rt {

namespace {

void check_adoptable(const std::vector<Handle2*>& handles, bool linked,
                     const char* who) {
  if (linked) {
    throw std::logic_error(std::string(who) + ": already linked");
  }
  if (handles.size() < 2) {
    throw std::invalid_argument(std::string(who) +
                                ": adopt needs a ring of >= 2 handles");
  }
  for (const Handle2* h : handles) {
    if (h == nullptr || !h->linked()) {
      throw std::invalid_argument(
          std::string(who) + ": adopted handles must be inserted already");
    }
  }
}

}  // namespace

void FifoProducer::adopt(std::vector<Handle2*> handles) {
  check_adoptable(handles, !handles_.empty(), "FifoProducer");
  Arena* arena = handles[0]->location()->queue().arena();
  handles_ = decltype(handles_)(ArenaAllocator<Handle2*>(arena));
  handles_.assign(handles.begin(), handles.end());
}

std::span<std::byte> FifoProducer::begin_push() {
  if (handles_.empty()) throw std::logic_error("FifoProducer: not linked");
  if (open_) throw std::logic_error("FifoProducer: push already open");
  handles_[next_]->acquire();
  open_ = true;
  return handles_[next_]->write_map();
}

void FifoProducer::end_push() {
  if (!open_) throw std::logic_error("FifoProducer: no open push");
  handles_[next_]->release();
  open_ = false;
  next_ = (next_ + 1) % handles_.size();
  ++pushed_;
}

void FifoConsumer::adopt(std::vector<Handle2*> handles) {
  check_adoptable(handles, !handles_.empty(), "FifoConsumer");
  Arena* arena = handles[0]->location()->queue().arena();
  handles_ = decltype(handles_)(ArenaAllocator<Handle2*>(arena));
  handles_.assign(handles.begin(), handles.end());
}

std::span<const std::byte> FifoConsumer::begin_pop() {
  if (handles_.empty()) throw std::logic_error("FifoConsumer: not linked");
  if (open_) throw std::logic_error("FifoConsumer: pop already open");
  handles_[next_]->acquire();
  open_ = true;
  return handles_[next_]->read_map();
}

void FifoConsumer::end_pop() {
  if (!open_) throw std::logic_error("FifoConsumer: no open pop");
  handles_[next_]->release();
  open_ = false;
  next_ = (next_ + 1) % handles_.size();
  ++popped_;
}

}  // namespace orwl::rt
