#include "dist/registry.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "dist/shm_transport.hpp"

namespace orwl::dist {

namespace {

wire::Frame error_frame(std::uint64_t cookie, const std::string& msg) {
  wire::Frame f;
  f.type = wire::Type::Error;
  f.location = cookie;
  f.payload.resize(msg.size());
  std::memcpy(f.payload.data(), msg.data(), msg.size());
  return f;
}

}  // namespace

Registry::~Registry() { stop(); }

void Registry::export_location(const std::string& name, rt::Location* loc) {
  std::lock_guard<std::mutex> lock(mu_);
  if (by_name_.count(name) != 0) {
    throw std::invalid_argument("Registry: duplicate export \"" + name +
                                "\"");
  }
  if (loc->queue().remote_sink() != nullptr) {
    throw std::invalid_argument("Registry: location of \"" + name +
                                "\" is already exported");
  }
  auto ex = std::make_unique<Export>();
  ex->reg = this;
  ex->name = name;
  ex->loc = loc;
  ex->id = exports_.size();
  Export* raw = ex.get();
  exports_.push_back(std::move(ex));
  by_name_[name] = raw->id;
  loc->queue().set_remote_sink(raw);
}

void Registry::unexport(const std::string& name) {
  Export* ex = nullptr;
  bool detach = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) return;
    ex = exports_[it->second].get();
    std::lock_guard<std::mutex> elock(ex->mu);
    ex->active = false;
    detach = take_drained_locked(ex);
  }
  if (detach) ex->loc->queue().set_remote_sink(nullptr);
}

void Registry::serve(std::unique_ptr<ServerTransport> transport) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (transport_) throw std::logic_error("Registry: already serving");
    shm_ = dynamic_cast<ShmServerTransport*>(transport.get()) != nullptr;
    transport_ = std::move(transport);
  }
  transport_->start({
      [this](PeerId p, wire::Frame&& f) { on_frame(p, std::move(f)); },
      [this](PeerId p) { on_disconnect(p); },
  });
}

void Registry::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (transport_) transport_->stop();
  std::vector<Export*> exports;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& e : exports_) exports.push_back(e.get());
  }
  for (Export* ex : exports) {
    // A detached export's location may be gone already (it had drained
    // after unexport); every other location is still alive.
    bool detach = false;
    {
      std::lock_guard<std::mutex> elock(ex->mu);
      detach = ex->attached;
      ex->attached = false;
    }
    if (detach) ex->loc->queue().set_remote_sink(nullptr);
  }
}

std::string Registry::address() const {
  std::lock_guard<std::mutex> lock(mu_);
  return transport_ ? transport_->address() : std::string();
}

std::string Registry::url(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!transport_) return "";
  return (shm_ ? "orwl+shm://" : "orwl://") + transport_->address() + "/" +
         name;
}

Registry::Stats Registry::stats() const {
  Stats s;
  s.attaches = attaches_.load(std::memory_order_acquire);
  s.proxy_requests = proxy_requests_.load(std::memory_order_acquire);
  s.grants_sent = grants_sent_.load(std::memory_order_acquire);
  s.releases = releases_.load(std::memory_order_acquire);
  s.orphans_reclaimed = orphans_.load(std::memory_order_acquire);
  s.rejected = rejected_.load(std::memory_order_acquire);
  return s;
}

Registry::Export* Registry::find_export(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  return id < exports_.size() ? exports_[id].get() : nullptr;
}

void Registry::on_frame(PeerId peer, wire::Frame&& f) {
  switch (f.type) {
    case wire::Type::Hello: handle_hello(peer, f); break;
    case wire::Type::ReqRead:
      handle_request(peer, f, rt::AccessMode::Read);
      break;
    case wire::Type::ReqWrite:
      handle_request(peer, f, rt::AccessMode::Write);
      break;
    case wire::Type::Release: handle_release(peer, f); break;
    case wire::Type::Bye: on_disconnect(peer); break;
    default: break;  // client-bound types from a client: ignore
  }
}

void Registry::handle_hello(PeerId peer, const wire::Frame& f) {
  const std::string name(reinterpret_cast<const char*>(f.payload.data()),
                         f.payload.size());
  Export* ex = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_name_.find(name);
    if (it != by_name_.end()) ex = exports_[it->second].get();
  }
  if (ex != nullptr) {
    std::lock_guard<std::mutex> elock(ex->mu);
    if (!ex->active) ex = nullptr;
  }
  if (ex == nullptr) {
    rejected_.fetch_add(1, std::memory_order_release);
    transport_->send(peer,
                     error_frame(f.location, "no export \"" + name + "\""));
    return;
  }
  attaches_.fetch_add(1, std::memory_order_release);
  wire::Frame ack;
  ack.type = wire::Type::HelloAck;
  ack.location = f.location;  // echo the client's cookie
  ack.ticket = ex->id;
  ack.aux = ex->loc->size();
  transport_->send(peer, ack);
}

void Registry::handle_request(PeerId peer, const wire::Frame& f,
                              rt::AccessMode mode) {
  Export* ex = find_export(f.location);
  if (ex == nullptr) return;
  bool active = false;
  {
    std::lock_guard<std::mutex> elock(ex->mu);
    active = ex->active;
    if (active) ++ex->adding;  // not drained before add_proxy has run
  }
  if (!active) {
    refuse(peer, ex, f.ticket);
    return;
  }
  add_proxy(ex, peer, f.ticket, ex->loc->queue().enqueue(mode), mode);
}

void Registry::refuse(PeerId peer, const Export* ex, std::uint64_t reqid) {
  rejected_.fetch_add(1, std::memory_order_release);
  wire::Frame e =
      error_frame(ex->id, "export \"" + ex->name + "\" was withdrawn");
  e.flags = wire::kFlagRequest;
  e.ticket = reqid;
  transport_->send(peer, e);
}

bool Registry::take_drained_locked(Export* ex) {
  if (ex->active || !ex->attached || ex->adding != 0 ||
      !ex->queued.empty() || !ex->granted.empty()) {
    return false;
  }
  ex->attached = false;
  return true;
}

void Registry::detach_if_drained(Export* ex) {
  {
    std::lock_guard<std::mutex> elock(ex->mu);
    if (!take_drained_locked(ex)) return;
  }
  ex->loc->queue().set_remote_sink(nullptr);
}

void Registry::add_proxy(Export* ex, PeerId peer, std::uint64_t reqid,
                         rt::Ticket t, rt::AccessMode mode) {
  // Recorded before parking: once parked, the sink may look `t` up on
  // another thread at any moment.
  {
    std::lock_guard<std::mutex> elock(ex->mu);
    --ex->adding;
    ex->queued[t] = {peer, reqid, mode, false};
  }
  proxy_requests_.fetch_add(1, std::memory_order_release);
  if (!ex->loc->queue().park_remote(t)) ship(ex, t);
}

void Registry::handle_release(PeerId peer, const wire::Frame& f) {
  Export* ex = find_export(f.location);
  if (ex == nullptr) return;
  const bool wants_reinsert = (f.flags & wire::kFlagReinsert) != 0;
  GrantedProxy held;
  bool reinsert = false;
  bool detach = false;
  {
    std::lock_guard<std::mutex> elock(ex->mu);
    const auto it = ex->granted.find({peer, f.ticket});
    if (it == ex->granted.end()) return;  // reclaimed meanwhile
    held = it->second;
    ex->granted.erase(it);
    // A writer's write-back lands while its proxy still holds the lock.
    // A payload on a read grant is ignored: readers change nothing.
    rt::Location* loc = ex->loc;
    if (held.mode == rt::AccessMode::Write && loc->data() != nullptr &&
        !f.payload.empty()) {
      std::memcpy(loc->data(), f.payload.data(),
                  std::min(f.payload.size(), loc->size()));
    }
    // An unexported location takes no new request, re-inserted or not.
    reinsert = wants_reinsert && ex->active;
    if (reinsert) {
      ++ex->adding;
    } else {
      detach = take_drained_locked(ex);
    }
  }
  releases_.fetch_add(1, std::memory_order_release);
  rt::RequestQueue& q = ex->loc->queue();
  if (reinsert) {
    // The iterative handle2 cycle, run atomically in the home queue so
    // the re-inserted request keeps the cyclic FIFO position.
    const rt::Ticket next = q.reinsert_and_release(held.ticket, held.mode);
    add_proxy(ex, peer, f.aux, next, held.mode);
    return;
  }
  q.release(held.ticket);
  if (wants_reinsert) refuse(peer, ex, f.aux);
  if (detach) q.set_remote_sink(nullptr);
}

void Registry::on_disconnect(PeerId peer) {
  std::vector<Export*> exports;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& e : exports_) exports.push_back(e.get());
  }
  for (Export* ex : exports) {
    std::vector<rt::Ticket> held;
    {
      std::lock_guard<std::mutex> elock(ex->mu);
      // Granted proxies: the client held the lock and is gone — release
      // them (below, unlocked) so the FIFO moves on; their unsent
      // write-back is lost.
      for (auto it = ex->granted.begin(); it != ex->granted.end();) {
        if (it->first.first == peer) {
          held.push_back(it->second.ticket);
          it = ex->granted.erase(it);
        } else {
          ++it;
        }
      }
      // Queued proxies: still waiting their turn; flag them so the sink
      // releases instead of shipping a GRANT into the void.
      for (auto& [t, p] : ex->queued) {
        if (p.peer == peer) p.orphaned = true;
      }
    }
    for (const rt::Ticket t : held) reclaim(ex, t);
    detach_if_drained(ex);
  }
}

void Registry::reclaim(Export* ex, rt::Ticket t) {
  ex->loc->queue().release(t);
  orphans_.fetch_add(1, std::memory_order_release);
}

void Registry::ship(Export* ex, rt::Ticket t) noexcept {
  Proxy p;
  wire::Frame g;
  {
    std::lock_guard<std::mutex> elock(ex->mu);
    const auto it = ex->queued.find(t);
    if (it == ex->queued.end()) return;
    p = it->second;
    ex->queued.erase(it);
    if (!p.orphaned) {
      // The proxy holds the lock now (writer: exclusively; reader:
      // sharing with readers who only read), so the buffer is stable to
      // copy. Copied before the proxy is published as granted: from then
      // on a disconnect may release it under us.
      g.type = wire::Type::Grant;
      g.location = ex->id;
      g.ticket = p.reqid;
      const rt::Location* loc = ex->loc;
      if (loc->data() != nullptr && loc->size() > 0) {
        g.payload.assign(loc->data(), loc->data() + loc->size());
      }
      ex->granted[{p.peer, p.reqid}] = {t, p.mode};
      // Counted before the frame leaves: the client can otherwise race
      // its RELEASE back through the transport thread before this thread
      // gets to the counter, and a stats() reader would see a release
      // whose grant was never counted.
      grants_sent_.fetch_add(1, std::memory_order_release);
    }
  }
  if (p.orphaned) {
    reclaim(ex, t);
    detach_if_drained(ex);
    return;
  }
  if (transport_->send(p.peer, g)) return;
  grants_sent_.fetch_sub(1, std::memory_order_release);
  // The peer vanished between its disconnect bookkeeping and this send:
  // reclaim the proxy unless the disconnect path already did.
  bool mine = false;
  {
    std::lock_guard<std::mutex> elock(ex->mu);
    const auto it = ex->granted.find({p.peer, p.reqid});
    if (it != ex->granted.end() && it->second.ticket == t) {
      ex->granted.erase(it);
      mine = true;
    }
  }
  if (mine) reclaim(ex, t);
  detach_if_drained(ex);
}

}  // namespace orwl::dist
