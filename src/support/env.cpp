#include "support/env.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace orwl::support {

namespace {

bool parse_bool(const char* name, std::string_view s) {
  if (iequals(s, "1") || iequals(s, "true") || iequals(s, "yes") ||
      iequals(s, "on")) {
    return true;
  }
  if (iequals(s, "0") || iequals(s, "false") || iequals(s, "no") ||
      iequals(s, "off")) {
    return false;
  }
  throw_bad_env(name, s, "a boolean (1/true/yes/on or 0/false/no/off)");
}

long parse_long(const char* name, const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
    throw_bad_env(name, s, "an integer");
  }
  return parsed;
}

double parse_double(const char* name, const std::string& s) {
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) {
    throw_bad_env(name, s, "a number");
  }
  return parsed;
}

/// Throws unless `x` lies in the row's range (NaN never does).
void check_range(const Knob& k, double x, const std::string& s,
                 const char* what) {
  if (x >= k.min && x <= k.max) return;
  char expected[96];
  if (std::isinf(k.max)) {
    std::snprintf(expected, sizeof expected, "%s >= %g", what, k.min);
  } else {
    std::snprintf(expected, sizeof expected, "%s in [%g, %g]", what, k.min,
                  k.max);
  }
  throw_bad_env(k.name, s, expected);
}

long parse_choice(const Knob& k, const std::string& s) {
  std::string expected = "one of";
  for (std::size_t i = 0; i < k.choices.size() && k.choices[i]; ++i) {
    if (iequals(s, k.choices[i])) return static_cast<long>(i);
    expected += i == 0 ? " " : ", ";
    expected += k.choices[i];
  }
  throw_bad_env(k.name, s, expected);
}

}  // namespace

std::optional<std::string> env_string(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return std::nullopt;
  return std::string(v);
}

bool iequals(std::string_view a, std::string_view b) noexcept {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

[[noreturn]] void throw_bad_env(const char* name, std::string_view value,
                                std::string_view expected) {
  throw std::invalid_argument(std::string(name) + "=\"" + std::string(value) +
                              "\": expected " + std::string(expected));
}

KnobValue read_knob(const Knob& k) {
  KnobValue v;
  auto env = env_string(k.name);
  v.text = env && !env->empty() ? std::move(*env) : std::string(k.fallback);
  if (v.text.empty()) return v;  // no fixed default: the caller derives it
  switch (k.kind) {
    case KnobKind::Bool:
      v.integer = parse_bool(k.name, v.text) ? 1 : 0;
      break;
    case KnobKind::Integer:
      v.integer = parse_long(k.name, v.text);
      check_range(k, static_cast<double>(v.integer), v.text, "an integer");
      break;
    case KnobKind::Real:
      v.real = parse_double(k.name, v.text);
      check_range(k, v.real, v.text, "a number");
      break;
    case KnobKind::Choice:
      v.integer = parse_choice(k, v.text);
      break;
    case KnobKind::String:
      break;
  }
  return v;
}

ScopedEnv::ScopedEnv(const char* name, const char* value)
    : name_(name), saved_(env_string(name)) {
  set(value);
}

ScopedEnv::~ScopedEnv() {
  if (saved_) {
    ::setenv(name_.c_str(), saved_->c_str(), 1);
  } else {
    ::unsetenv(name_.c_str());
  }
}

void ScopedEnv::set(const char* value) {
  if (value != nullptr) {
    ::setenv(name_.c_str(), value, 1);
  } else {
    ::unsetenv(name_.c_str());
  }
}

}  // namespace orwl::support
