#include "dist/remote.hpp"

#include <chrono>
#include <cstring>
#include <stdexcept>

#include "dist/shm_transport.hpp"
#include "dist/tcp_transport.hpp"

namespace orwl::dist {

namespace {

/// Deadlock guard on remote acquires, mirroring the intra-process
/// RequestQueue timeout: a grant that never arrives means the home died
/// or the protocol deadlocked — throwing beats hanging forever.
constexpr auto kAcquireTimeout = std::chrono::seconds(120);

constexpr auto kAttachTimeout = std::chrono::seconds(10);

}  // namespace

Url parse_url(const std::string& url) {
  Url u;
  std::string rest;
  if (url.rfind("orwl+shm://", 0) == 0) {
    u.mode = DistMode::Shm;
    rest = url.substr(11);
    const auto slash = rest.find('/');
    u.shm_base = rest.substr(0, slash);
    if (slash != std::string::npos) u.name = rest.substr(slash + 1);
    if (u.shm_base.empty()) {
      throw std::invalid_argument("parse_url: empty shm base in \"" + url +
                                  "\"");
    }
    return u;
  }
  if (url.rfind("orwl://", 0) == 0) {
    u.mode = DistMode::Tcp;
    rest = url.substr(7);
    const auto slash = rest.find('/');
    const std::string hostport = rest.substr(0, slash);
    if (slash != std::string::npos) u.name = rest.substr(slash + 1);
    const auto colon = hostport.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 == hostport.size()) {
      throw std::invalid_argument("parse_url: expected host:port in \"" +
                                  url + "\"");
    }
    u.host = hostport.substr(0, colon);
    char* end = nullptr;
    const std::string port_str = hostport.substr(colon + 1);
    const long port = std::strtol(port_str.c_str(), &end, 10);
    if (end == port_str.c_str() || *end != '\0' || port < 1 || port > 65535) {
      throw std::invalid_argument("parse_url: bad port in \"" + url + "\"");
    }
    u.port = static_cast<std::uint16_t>(port);
    return u;
  }
  throw std::invalid_argument(
      "parse_url: expected orwl:// or orwl+shm:// in \"" + url + "\"");
}

// ---- RemoteLocation -------------------------------------------------------

RemoteLocation::RemoteLocation(Client* client, std::uint64_t eid,
                               std::size_t bytes)
    : rt::Location(static_cast<rt::LocationId>(eid), /*owner=*/0, /*slot=*/0),
      client_(client),
      eid_(eid) {
  // The local mirror of the home buffer: GRANT payloads land here and
  // write-backs are read from here.
  if (bytes > 0) scale(bytes);
}

rt::Ticket RemoteLocation::enqueue_request(rt::AccessMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dead_) {
    throw std::runtime_error("remote location: connection lost");
  }
  const std::uint64_t reqid = next_reqid_++;
  reqs_[reqid] = {mode, false};
  wire::Frame f;
  f.type = mode == rt::AccessMode::Write ? wire::Type::ReqWrite
                                         : wire::Type::ReqRead;
  f.location = eid_;
  f.ticket = reqid;
  // Send under mu_: reqid assignment and wire order stay identical, so
  // the home enqueues this client's requests in program order.
  if (!client_->send(f)) {
    reqs_.erase(reqid);
    throw std::runtime_error("remote location: connection lost");
  }
  return reqid;
}

void RemoteLocation::acquire_request(rt::Ticket t) {
  Req* req = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = reqs_.find(t);
    if (it == reqs_.end()) {
      throw std::logic_error("remote acquire: unknown ticket");
    }
    req = &it->second;
  }
  // Not under mu_: this thread may run on_grant while it waits.
  client_->transport_->wait(
      [&] {
        std::lock_guard<std::mutex> lock(mu_);
        return req->granted || req->refused || dead_;
      },
      ClientTransport::Clock::now() + kAcquireTimeout);
  std::lock_guard<std::mutex> lock(mu_);
  if (req->refused) {
    throw std::runtime_error("remote acquire: " + refusal_);
  }
  if (!req->granted) {
    throw std::runtime_error(
        dead_ ? "remote acquire: connection lost"
              : "remote acquire: timeout waiting for GRANT");
  }
  ++active_;
}

void RemoteLocation::release_request(rt::Ticket t) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = reqs_.find(t);
  if (it == reqs_.end()) {
    throw std::logic_error("remote release: unknown ticket");
  }
  if (!dead_) client_->send(release_frame(t, it->second.mode));
  reqs_.erase(it);
  if (active_ > 0) --active_;
}

rt::Ticket RemoteLocation::reinsert_release_request(rt::Ticket t,
                                                    rt::AccessMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = reqs_.find(t);
  if (it == reqs_.end()) {
    throw std::logic_error("remote reinsert: unknown ticket");
  }
  if (dead_) {
    throw std::runtime_error("remote location: connection lost");
  }
  const std::uint64_t next = next_reqid_++;
  reqs_[next] = {mode, false};
  wire::Frame r = release_frame(t, mode);
  r.flags = wire::kFlagReinsert;
  r.aux = next;  // the home re-inserts atomically under this reqid
  if (!client_->send(r)) {
    reqs_.erase(next);
    reqs_.erase(t);
    if (active_ > 0) --active_;
    throw std::runtime_error("remote location: connection lost");
  }
  reqs_.erase(t);
  if (active_ > 0) --active_;
  return next;
}

wire::Frame RemoteLocation::release_frame(rt::Ticket t,
                                          rt::AccessMode mode) {
  wire::Frame r;
  r.type = wire::Type::Release;
  r.location = eid_;
  r.ticket = t;
  if (mode == rt::AccessMode::Write && data() != nullptr) {
    r.payload.assign(data(), data() + size());
  }
  return r;
}

void RemoteLocation::on_grant(wire::Frame&& f) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = reqs_.find(f.ticket);
  if (it == reqs_.end()) return;  // stale grant after a local bail-out
  // Land the buffer payload in the mirror. Only the first grant of a
  // reader group copies (active_ == 0): later members of the same group
  // carry identical bytes, and skipping the copy keeps the memcpy from
  // racing a reader already inside its critical section.
  if (active_ == 0 && !f.payload.empty() && data() != nullptr) {
    const std::size_t n =
        f.payload.size() < size() ? f.payload.size() : size();
    std::memcpy(data(), f.payload.data(), n);
  }
  it->second.granted = true;
}

void RemoteLocation::on_refused(wire::Frame&& f) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = reqs_.find(f.ticket);
  if (it == reqs_.end()) return;
  refusal_.assign(reinterpret_cast<const char*>(f.payload.data()),
                  f.payload.size());
  it->second.refused = true;
}

void RemoteLocation::fail_all() {
  std::lock_guard<std::mutex> lock(mu_);
  dead_ = true;
}

// ---- Client ---------------------------------------------------------------

std::unique_ptr<Client> Client::connect(const std::string& url) {
  return connect(parse_url(url));
}

std::unique_ptr<Client> Client::connect(const Url& url) {
  std::unique_ptr<ClientTransport> t;
  switch (url.mode) {
    case DistMode::Shm:
      t = std::make_unique<ShmClientTransport>(url.shm_base);
      break;
    case DistMode::Tcp:
      t = std::make_unique<TcpClientTransport>(url.host, url.port);
      break;
    case DistMode::Off:
      throw std::invalid_argument("Client::connect: ORWL_DIST is off");
  }
  return std::make_unique<Client>(std::move(t));
}

Client::Client(std::unique_ptr<ClientTransport> transport)
    : transport_(std::move(transport)) {
  transport_->start([this](wire::Frame&& f) { on_frame(std::move(f)); },
                    [this] { on_disconnect(); });
}

Client::~Client() { close(); }

RemoteLocation& Client::attach(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto known = by_name_.find(name);
  if (known != by_name_.end()) return *locs_[known->second];
  if (!alive_.load(std::memory_order_acquire)) {
    throw std::runtime_error("attach: connection lost");
  }
  const std::uint64_t cookie = next_cookie_++;
  pending_[cookie] = {};
  wire::Frame hello;
  hello.type = wire::Type::Hello;
  hello.location = cookie;
  hello.payload.resize(name.size());
  std::memcpy(hello.payload.data(), name.data(), name.size());
  const PendingAttach& p = pending_[cookie];  // map nodes are stable
  lock.unlock();
  if (!send(hello)) {
    lock.lock();
    pending_.erase(cookie);
    throw std::runtime_error("attach: connection lost");
  }
  // Not under mu_: this thread may run the HELLO_ACK handler.
  transport_->wait(
      [&] {
        std::lock_guard<std::mutex> held(mu_);
        return p.done || !alive_.load(std::memory_order_acquire);
      },
      ClientTransport::Clock::now() + kAttachTimeout);
  lock.lock();
  if (!p.done && alive_.load(std::memory_order_acquire)) {
    pending_.erase(cookie);
    throw std::runtime_error("attach(\"" + name + "\"): timeout");
  }
  const PendingAttach result = p;
  pending_.erase(cookie);
  if (!result.done || !result.ok) {
    throw std::runtime_error("attach(\"" + name + "\"): " +
                             (result.error.empty() ? "connection lost"
                                                   : result.error));
  }
  // Another thread may have attached the same name while we waited.
  const auto again = by_name_.find(name);
  if (again != by_name_.end()) return *locs_[again->second];
  auto loc = std::unique_ptr<RemoteLocation>(new RemoteLocation(
      this, result.eid, static_cast<std::size_t>(result.bytes)));
  RemoteLocation& ref = *loc;
  by_name_[name] = result.eid;
  locs_[result.eid] = std::move(loc);
  return ref;
}

void Client::on_frame(wire::Frame&& f) {
  switch (f.type) {
    case wire::Type::HelloAck: {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = pending_.find(f.location);
      if (it == pending_.end()) return;
      it->second.done = true;
      it->second.ok = true;
      it->second.eid = f.ticket;
      it->second.bytes = f.aux;
      return;
    }
    case wire::Type::Error: {
      if ((f.flags & wire::kFlagRequest) != 0) {
        RemoteLocation* loc = nullptr;
        {
          std::lock_guard<std::mutex> lock(mu_);
          const auto it = locs_.find(f.location);
          if (it != locs_.end()) loc = it->second.get();
        }
        if (loc != nullptr) loc->on_refused(std::move(f));
        return;
      }
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = pending_.find(f.location);
      if (it == pending_.end()) return;
      it->second.done = true;
      it->second.ok = false;
      it->second.error.assign(
          reinterpret_cast<const char*>(f.payload.data()), f.payload.size());
      return;
    }
    case wire::Type::Grant: {
      RemoteLocation* loc = nullptr;
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = locs_.find(f.location);
        if (it != locs_.end()) loc = it->second.get();
      }
      if (loc != nullptr) loc->on_grant(std::move(f));
      return;
    }
    case wire::Type::Bye: on_disconnect(); return;
    default: return;
  }
}

void Client::fail_locations() {
  std::vector<RemoteLocation*> locs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [eid, loc] : locs_) locs.push_back(loc.get());
  }
  for (RemoteLocation* loc : locs) loc->fail_all();
}

void Client::on_disconnect() {
  if (!alive_.exchange(false, std::memory_order_acq_rel)) return;
  fail_locations();
}

void Client::close() {
  if (alive_.exchange(false, std::memory_order_acq_rel)) {
    wire::Frame bye;
    bye.type = wire::Type::Bye;
    transport_->send(bye);
    fail_locations();
  }
  transport_->stop();
}

void Client::kill() {
  alive_.store(false, std::memory_order_release);
  fail_locations();
  transport_->stop();  // hard drop: no BYE — the home sees a disconnect
}

}  // namespace orwl::dist
