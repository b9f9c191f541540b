// Wire protocol of the distributed ORWL transport layer.
//
// The grant engine's ticket life-cycle (request -> grant -> release, with
// the iterative re-insert of orwl_handle2) is serialized into fixed-header
// frames so a location's FIFO can be driven from another process (shm) or
// another host (tcp). One frame = a 36-byte little-endian header plus an
// optional payload. The location buffer travels home->client in GRANT and,
// for a writer, client->home in the RELEASE that ends its grant, so each
// step of the cycle is exactly one frame.
//
// The header is explicit little-endian regardless of host byte order, so
// a frame encoded on one host decodes bit-identically on any other — the
// contract an RDMA-style transport needs as much as a socket does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace orwl::dist::wire {

/// Frame discriminator. Values are wire ABI: append only, never renumber.
enum class Type : std::uint8_t {
  Hello = 1,  ///< client->home: attach to an export; payload = its name
  HelloAck,   ///< home->client: location echoes the Hello cookie,
              ///< ticket = export id, aux = location buffer size
  ReqRead,    ///< client->home: enqueue a read; ticket = client reqid
  ReqWrite,   ///< client->home: enqueue a write; ticket = client reqid
  Grant,      ///< home->client: reqid granted; payload = buffer bytes
  Release,    ///< client->home: release reqid; payload = the writer's
              ///< write-back (ignored for a read grant); kFlagReinsert +
              ///< aux = new reqid runs the iterative (handle2) cycle
              ///< atomically
  Data,       ///< retired (version 1's separate write-back frame); still
              ///< encodes, but no peer sends it and the home ignores it
  Error,      ///< home->client: request failed; payload = message
  Bye,        ///< either side: orderly disconnect
};

/// Human-readable frame-type name (diagnostics and tests).
const char* to_string(Type t) noexcept;

/// Release flag: atomically re-insert a request of the same mode (the
/// orwl_handle2 cycle); aux carries the client's new reqid.
inline constexpr std::uint16_t kFlagReinsert = 1u << 0;

/// Error flag: the error refuses a request rather than an attach;
/// location is the export id and ticket the client's reqid.
inline constexpr std::uint16_t kFlagRequest = 1u << 1;

/// Bytes of the fixed header: magic(4) version(1) type(1) flags(2)
/// location(8) ticket(8) aux(8) payload_len(4).
inline constexpr std::size_t kHeaderBytes = 36;

/// Wire magic ("ORWL") and protocol version. Version 2 moved the
/// write-back from DATA into RELEASE; a version 1 peer decodes as Bad, so
/// its write-backs fail loudly instead of being dropped.
inline constexpr std::uint8_t kMagic[4] = {'O', 'R', 'W', 'L'};
inline constexpr std::uint8_t kVersion = 2;

/// Upper bound on payload_len a decoder accepts (1 GiB): anything larger
/// is a corrupt or hostile header, not a location buffer.
inline constexpr std::uint32_t kMaxPayload = 1u << 30;

/// One protocol message. `location` names the export (home-assigned id),
/// `ticket` the client-side request id, `aux` is per-type extra state.
struct Frame {
  Type type = Type::Bye;
  std::uint16_t flags = 0;
  std::uint64_t location = 0;
  std::uint64_t ticket = 0;
  std::uint64_t aux = 0;
  std::vector<std::byte> payload;

  bool operator==(const Frame& o) const = default;
};

/// Append the encoded frame (header + payload) to `out`.
void encode(const Frame& f, std::vector<std::byte>& out);

/// Encoded size of a frame.
inline std::size_t encoded_size(const Frame& f) noexcept {
  return kHeaderBytes + f.payload.size();
}

enum class DecodeStatus : std::uint8_t {
  Ok,        ///< one frame decoded; `consumed` bytes were eaten
  NeedMore,  ///< prefix of a valid frame; feed more bytes, consumed == 0
  Bad,       ///< malformed header (magic/version/length): drop the peer
};

struct DecodeResult {
  DecodeStatus status = DecodeStatus::NeedMore;
  std::size_t consumed = 0;
};

/// Decode one frame from the front of [data, data+len). Truncated input
/// is NeedMore (never Bad): stream decoders call this repeatedly as bytes
/// arrive. On Ok, `out` holds the frame and `consumed` the bytes eaten.
DecodeResult decode(const std::byte* data, std::size_t len, Frame& out);

/// Reassembles frames from a byte stream that arrives in pieces of any
/// size: the one frame decoder every transport reader uses. One reader
/// thread per stream.
class FrameStream {
 public:
  using Sink = std::function<void(Frame&&)>;

  /// Take n more bytes and hand every frame they complete to `sink`, in
  /// stream order. Returns false once the stream is Bad (the caller drops
  /// the peer); frames that precede the bad header are still delivered,
  /// and every later feed returns false too.
  bool feed(const std::byte* p, std::size_t n, const Sink& sink);

 private:
  std::vector<std::byte> buf_;  ///< the prefix of a frame still incomplete
  bool bad_ = false;
};

}  // namespace orwl::dist::wire
