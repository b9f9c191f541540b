// The span tracer: spans live in memory and are written out once, as
// Chrome trace-event JSON, when the run ends.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

/// Innermost open span of this thread (index into the one tracer).
thread_local int t_open = -1;

std::uint32_t thread_tag() {
  return static_cast<std::uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled, std::size_t cap)
    : enabled_(enabled), cap_(cap), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(cap_);
}

int Tracer::open(const char* name, std::uint64_t id, int parent) {
  const double t0 =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() >= cap_) {
    ++dropped_;
    return -1;
  }
  spans_.push_back({name, id, parent, thread_tag(), t0, t0});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int index) {
  const double t1 =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(index)].t1_us = t1;
}

Tracer::Span::Span(Tracer& t, const char* name, std::uint64_t id) : t_(&t) {
  if (!t.enabled_) return;
  index_ = t.open(name, id, t_open);
  if (index_ >= 0) {
    prev_open_ = t_open;
    t_open = index_;
  }
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  t_->close(index_);
  t_open = prev_open_;
}

std::size_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lk(mu_);
  return dropped_;
}

std::map<std::string, double> Tracer::self_ms() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    // Subtract the time the children's intervals cover, clipped to the
    // parent.
    std::vector<std::pair<double, double>> iv;
    for (const std::size_t c : children[i]) {
      const double a = std::max(spans_[c].t0_us, s.t0_us);
      const double b = std::min(spans_[c].t1_us, s.t1_us);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, end = s.t0_us;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, end);
      if (b > from) covered += b - from;
      end = std::max(end, b);
    }
    out[s.name] += (s.t1_us - s.t0_us - covered) / 1000.0;
  }
  return out;
}

void Tracer::write_chrome_json(
    const std::string& path,
    const std::map<std::string, std::string>& meta) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lk(mu_);
  f << "{\"displayTimeUnit\":\"ms\",\"metadata\":{";
  bool first = true;
  for (const auto& [k, v] : meta) {
    f << (first ? "" : ",") << '"' << json_escape(k) << "\":\""
      << json_escape(v) << '"';
    first = false;
  }
  f << "},\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Rec& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                  "\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",\n", s.name, s.tid, s.t0_us,
                  s.t1_us - s.t0_us, static_cast<unsigned long long>(s.id),
                  i, s.parent);
    f << buf;
  }
  f << "]}\n";
}

}  // namespace perfbench
