#include "dist/wire.hpp"

#include <cstring>

namespace orwl::dist::wire {

namespace {

void put_u16(std::vector<std::byte>& out, std::uint16_t v) {
  out.push_back(static_cast<std::byte>(v & 0xff));
  out.push_back(static_cast<std::byte>(v >> 8));
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xff));
  }
}

std::uint16_t get_u16(const std::byte* p) noexcept {
  return static_cast<std::uint16_t>(std::to_integer<std::uint16_t>(p[0]) |
                                    (std::to_integer<std::uint16_t>(p[1])
                                     << 8));
}

std::uint32_t get_u32(const std::byte* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::to_integer<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const std::byte* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= std::to_integer<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

bool known_type(std::uint8_t t) noexcept {
  return t >= static_cast<std::uint8_t>(Type::Hello) &&
         t <= static_cast<std::uint8_t>(Type::Bye);
}

}  // namespace

const char* to_string(Type t) noexcept {
  switch (t) {
    case Type::Hello: return "HELLO";
    case Type::HelloAck: return "HELLO_ACK";
    case Type::ReqRead: return "REQ_READ";
    case Type::ReqWrite: return "REQ_WRITE";
    case Type::Grant: return "GRANT";
    case Type::Release: return "RELEASE";
    case Type::Data: return "DATA";
    case Type::Error: return "ERROR";
    case Type::Bye: return "BYE";
  }
  return "?";
}

void encode(const Frame& f, std::vector<std::byte>& out) {
  out.reserve(out.size() + kHeaderBytes + f.payload.size());
  for (std::uint8_t m : kMagic) out.push_back(static_cast<std::byte>(m));
  out.push_back(static_cast<std::byte>(kVersion));
  out.push_back(static_cast<std::byte>(f.type));
  put_u16(out, f.flags);
  put_u64(out, f.location);
  put_u64(out, f.ticket);
  put_u64(out, f.aux);
  put_u32(out, static_cast<std::uint32_t>(f.payload.size()));
  out.insert(out.end(), f.payload.begin(), f.payload.end());
}

DecodeResult decode(const std::byte* data, std::size_t len, Frame& out) {
  if (len < kHeaderBytes) return {DecodeStatus::NeedMore, 0};
  for (int i = 0; i < 4; ++i) {
    if (std::to_integer<std::uint8_t>(data[i]) != kMagic[i]) {
      return {DecodeStatus::Bad, 0};
    }
  }
  if (std::to_integer<std::uint8_t>(data[4]) != kVersion) {
    return {DecodeStatus::Bad, 0};
  }
  const std::uint8_t type = std::to_integer<std::uint8_t>(data[5]);
  if (!known_type(type)) return {DecodeStatus::Bad, 0};
  const std::uint32_t plen = get_u32(data + 32);
  if (plen > kMaxPayload) return {DecodeStatus::Bad, 0};
  if (len < kHeaderBytes + plen) return {DecodeStatus::NeedMore, 0};

  out.type = static_cast<Type>(type);
  out.flags = get_u16(data + 6);
  out.location = get_u64(data + 8);
  out.ticket = get_u64(data + 16);
  out.aux = get_u64(data + 24);
  out.payload.assign(data + kHeaderBytes, data + kHeaderBytes + plen);
  return {DecodeStatus::Ok, kHeaderBytes + plen};
}

bool FrameStream::feed(const std::byte* p, std::size_t n, const Sink& sink) {
  if (bad_) return false;
  buf_.insert(buf_.end(), p, p + n);
  std::size_t off = 0;
  for (;;) {
    Frame f;
    const DecodeResult r = decode(buf_.data() + off, buf_.size() - off, f);
    if (r.status == DecodeStatus::Bad) {
      bad_ = true;
      return false;
    }
    if (r.status == DecodeStatus::NeedMore) break;
    off += r.consumed;
    sink(std::move(f));
  }
  buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(off));
  return true;
}

}  // namespace orwl::dist::wire
