// Home-side registry of exported locations.
//
// The registry names locations for remote attach ("orwl://host:port/name")
// and runs the RemoteMirror half of the protocol: every REQ frame becomes
// a proxy ticket in the location's real RequestQueue, so remote and local
// requesters share one FIFO and the grant engine stays the single source
// of truth for ordering.
//
// Grants are event-driven, with no thread of the registry's own. Each
// export is its queue's rt::RemoteGrantSink, and every proxy ticket is
// parked remotely (RequestQueue::park_remote). The thread that grants a
// proxy therefore ships its GRANT frame with the buffer bytes, right after
// the grant: a local releaser, or the transport thread
// handling the previous holder's RELEASE. A proxy already granted when it
// is parked (an uncontended request) is shipped inline by the transport
// thread that received the REQ. The send never waits for the client: a
// frame its ring or socket cannot take at once is queued on the
// connection (ServerTransport::send), so a slow or stalled client holds
// up neither the granting thread nor the reader of its own requests.
// One RELEASE frame from the client completes the cycle: a writer's
// carries the write-back, copied into the location before the ticket is
// released, and the reinsert flag runs the iterative handle2 re-insert
// atomically in the home queue.
//
// Orphan reclamation: when a client disconnects, its granted proxies are
// released immediately (their write-back is lost — the client died) and
// its queued proxies are flagged; the sink releases those the moment the
// queue grants them, so the FIFO drains instead of deadlocking.
//
// Unexport: new attaches and requests are refused; once the outstanding
// proxies drain, the export detaches from the queue.
//
// Locking: an export's mutex guards only its proxy maps and state and is
// never held across a queue call, because a queue call may run the sink
// (and so take that mutex) on the same thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dist/transport.hpp"
#include "runtime/location.hpp"

namespace orwl::dist {

class Registry {
 public:
  struct Stats {
    std::uint64_t attaches = 0;
    std::uint64_t proxy_requests = 0;
    std::uint64_t grants_sent = 0;
    std::uint64_t releases = 0;
    std::uint64_t orphans_reclaimed = 0;
    std::uint64_t rejected = 0;  ///< refused attaches and requests
  };

  Registry() = default;
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Export `loc` under `name`. The location must outlive the registry's
  /// stop(). Exports may be added before or after serve(). Throws
  /// std::invalid_argument on a duplicate name, or when `loc` is already
  /// exported (its queue has a remote sink).
  void export_location(const std::string& name, rt::Location* loc);

  /// Refuse future attaches to `name` and new requests from clients
  /// already attached (their acquire fails); outstanding proxies drain
  /// normally. The location must stay alive until they have drained or
  /// the registry has stopped. Once none is left the export detaches
  /// from the location's queue, which may then be destroyed or exported
  /// again. Unknown names are a no-op (evict paths are idempotent).
  void unexport(const std::string& name);

  /// Start serving over `transport` (shm or tcp; exactly one serve per
  /// registry).
  void serve(std::unique_ptr<ServerTransport> transport);

  /// Stop the transport and detach every export still attached from its
  /// queue (waiting out sink calls in flight). Proxies still queued or
  /// granted then are abandoned: they stay in their queues. Idempotent.
  void stop();

  /// The transport's connectable address ("" before serve()).
  std::string address() const;

  /// Connect URL for an exported name: "orwl://host:port/name" (tcp) or
  /// "orwl+shm://base/name" (shm).
  std::string url(const std::string& name) const;

  Stats stats() const;

 private:
  /// One not-yet-granted remote request (a proxy ticket in the FIFO).
  struct Proxy {
    PeerId peer = 0;
    std::uint64_t reqid = 0;
    rt::AccessMode mode = rt::AccessMode::Read;
    bool orphaned = false;
  };

  /// A proxy whose GRANT was shipped; awaiting RELEASE (or reclamation).
  struct GrantedProxy {
    rt::Ticket ticket = 0;
    rt::AccessMode mode = rt::AccessMode::Read;
  };

  struct Export final : rt::RemoteGrantSink {
    Registry* reg = nullptr;
    std::string name;
    rt::Location* loc = nullptr;
    std::uint64_t id = 0;
    std::mutex mu;  ///< guards the rest; never held across a queue call
    bool active = true;    ///< accepts attaches and new requests
    bool attached = true;  ///< installed as its queue's remote sink
    int adding = 0;        ///< requests between enqueue and add_proxy
    std::map<rt::Ticket, Proxy> queued;  ///< by home ticket
    std::map<std::pair<PeerId, std::uint64_t>, GrantedProxy> granted;

    void on_remote_grant(rt::Ticket t) noexcept override { reg->ship(this, t); }
  };

  void on_frame(PeerId peer, wire::Frame&& f);
  void on_disconnect(PeerId peer);
  void handle_hello(PeerId peer, const wire::Frame& f);
  void handle_request(PeerId peer, const wire::Frame& f, rt::AccessMode mode);
  void handle_release(PeerId peer, const wire::Frame& f);
  /// Enqueue a proxy for (peer, reqid) at home ticket `t` and park it
  /// remotely; ships its GRANT inline when `t` is already granted.
  void add_proxy(Export* ex, PeerId peer, std::uint64_t reqid, rt::Ticket t,
                 rt::AccessMode mode);
  /// Hand the granted proxy ticket `t` to its client: a GRANT frame with
  /// the buffer bytes, or a release when the client is gone.
  void ship(Export* ex, rt::Ticket t) noexcept;
  /// Release the proxy ticket of a client that is gone.
  void reclaim(Export* ex, rt::Ticket t);
  /// Answer a request of an unexported location with an ERROR frame.
  void refuse(PeerId peer, const Export* ex, std::uint64_t reqid);
  /// True, and marks `ex` detached, when it is unexported and has no
  /// proxy left: the caller then detaches it from its queue once ex->mu
  /// is dropped. Requires ex->mu held.
  static bool take_drained_locked(Export* ex);
  /// Detach `ex` from its queue when it has drained.
  void detach_if_drained(Export* ex);
  Export* find_export(std::uint64_t id);

  mutable std::mutex mu_;  ///< guards exports_/by_name_
  std::vector<std::unique_ptr<Export>> exports_;
  std::map<std::string, std::uint64_t> by_name_;
  std::unique_ptr<ServerTransport> transport_;
  bool shm_ = false;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> attaches_{0};
  std::atomic<std::uint64_t> proxy_requests_{0};
  std::atomic<std::uint64_t> grants_sent_{0};
  std::atomic<std::uint64_t> releases_{0};
  std::atomic<std::uint64_t> orphans_{0};
  std::atomic<std::uint64_t> rejected_{0};
};

}  // namespace orwl::dist
