// Client side of distributed ORWL: RemoteLocation and the Client session.
//
// A RemoteLocation subclasses rt::Location and overrides its virtual
// request surface, so rt::Handle, Section and every v2 ReadGuard /
// WriteGuard work unchanged against a location whose home (and FIFO) is
// another process: enqueue sends REQ_READ/REQ_WRITE, acquire blocks until
// the matching GRANT lands (copying the shipped buffer bytes into the
// local mirror), release sends one RELEASE frame (a writer's carries the
// mirror home as its payload), and the iterative handle2 cycle maps onto
// RELEASE|reinsert.
//
// FIFO across the wire: request ids are assigned and their frames sent
// under one mutex, so the home sees this client's requests in program
// order; the home queue then globally orders them against every other
// requester.
//
// A Client starts no thread. A thread blocked in acquire (or attach)
// waits through ClientTransport::wait: while no other thread reads the
// connection it reads it itself and runs the frame handlers, so the
// GRANT it waits for wakes it directly; otherwise it parks until the
// reading thread has delivered a chunk or given up the read role.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "dist/transport.hpp"
#include "runtime/location.hpp"

namespace orwl::dist {

class Client;

/// Parsed "orwl://host:port/name" (tcp) or "orwl+shm://base/name" (shm).
/// `name` is empty when the URL names just the endpoint.
struct Url {
  DistMode mode = DistMode::Off;
  std::string host;
  std::uint16_t port = 0;
  std::string shm_base;
  std::string name;
};

/// Parse an ORWL URL; throws std::invalid_argument on malformed input.
Url parse_url(const std::string& url);

/// A location whose home is another process. Obtained from
/// Client::attach(); its lifetime is owned by the Client session.
class RemoteLocation final : public rt::Location {
 public:
  rt::Ticket enqueue_request(rt::AccessMode mode) override;
  void acquire_request(rt::Ticket t) override;
  void release_request(rt::Ticket t) override;
  rt::Ticket reinsert_release_request(rt::Ticket t,
                                      rt::AccessMode mode) override;
  bool is_remote() const noexcept override { return true; }

  /// Export id assigned by the home registry.
  std::uint64_t export_id() const noexcept { return eid_; }

 private:
  friend class Client;

  RemoteLocation(Client* client, std::uint64_t eid, std::size_t bytes);
  void on_grant(wire::Frame&& f);
  void on_refused(wire::Frame&& f);  // the home took back the export
  void fail_all();  // connection lost: wake every waiter with an error
  /// Caller holds mu_: the RELEASE frame of ticket `t`. A write grant's
  /// carries the mirror as its payload, the write-back; a read grant's
  /// and an unsized location's carry none.
  wire::Frame release_frame(rt::Ticket t, rt::AccessMode mode);

  struct Req {
    rt::AccessMode mode = rt::AccessMode::Read;
    bool granted = false;
    bool refused = false;
  };

  Client* client_;
  std::uint64_t eid_;
  std::mutex mu_;
  std::uint64_t next_reqid_ = 1;
  /// A waiter holds its Req by reference across the wait: nodes are
  /// stable while other requests come and go.
  std::unordered_map<std::uint64_t, Req> reqs_;
  std::size_t active_ = 0;  ///< requests currently acquired by this client
  bool dead_ = false;
  std::string refusal_;  ///< the home's message when it refused a request
};

/// One connection to a home registry. Thread-compatible: attach() from
/// one thread; the attached locations are then driven from any threads
/// (their own mutexes order the wire traffic).
class Client {
 public:
  /// Connect to the endpoint in `url` (the /name part, if any, is
  /// ignored — call attach() per location).
  static std::unique_ptr<Client> connect(const std::string& url);
  static std::unique_ptr<Client> connect(const Url& url);

  explicit Client(std::unique_ptr<ClientTransport> transport);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Attach to the export `name`. Returns the (session-owned) remote
  /// location; repeated attaches to one name return the same object.
  /// Throws std::runtime_error when the home rejects or the connection
  /// dies.
  RemoteLocation& attach(const std::string& name);

  /// Orderly shutdown: BYE + transport stop. Idempotent; the destructor
  /// calls it. Outstanding acquires fail with std::runtime_error.
  void close();

  /// Drop the connection without BYE — test hook simulating a client
  /// crash (the home must reclaim our tickets via disconnect).
  void kill();

  /// False once the connection is closed or lost. Delivers what has
  /// already arrived first, so a drop is noticed with no thread waiting.
  bool alive() {
    transport_->poll();
    return alive_.load(std::memory_order_acquire);
  }

 private:
  friend class RemoteLocation;

  void on_frame(wire::Frame&& f);
  void on_disconnect();
  /// Fail every attached location's waiters. The caller then wakes
  /// them: the role holder by giving up the read role, close() and
  /// kill() by stopping the transport.
  void fail_locations();
  bool send(const wire::Frame& f) { return transport_->send(f); }

  struct PendingAttach {
    bool done = false;
    bool ok = false;
    std::uint64_t eid = 0;
    std::uint64_t bytes = 0;
    std::string error;
  };

  std::unique_ptr<ClientTransport> transport_;
  std::atomic<bool> alive_{true};
  std::mutex mu_;  ///< guards attach state and the location maps
  std::uint64_t next_cookie_ = 1;
  std::map<std::uint64_t, PendingAttach> pending_;
  std::map<std::uint64_t, std::unique_ptr<RemoteLocation>> locs_;
  std::map<std::string, std::uint64_t> by_name_;
};

}  // namespace orwl::dist
