// Runtime configuration: every ORWL_* knob in one table, one resolver.
//
// The affinity module of the paper is switched on by setting the
// environment variable ORWL_AFFINITY=1 ("the ORWL user only has to set the
// environment variable ORWL_AFFINITY to 1", Sec. IV-B). The runtime has
// more knobs than that one; each is a row of the table below, and
// resolve() is the only code that reads the environment for them: an
// explicit option beats the environment, which beats the row's default.
// A typo'd or out-of-range value fails loudly (std::invalid_argument
// naming the variable) instead of silently running with a default.
// BUILDING.md's runtime configuration reference documents the same rows;
// support_test checks that the names and defaults agree.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace orwl::support {

/// How a row's value is spelled. Bool: 1/true/yes/on or 0/false/no/off;
/// Integer: strtol, within `long`; Real: strtod; Choice: one of the
/// row's spellings; String: any text. All but String are case-insensitive,
/// and an empty value counts as unset.
enum class KnobKind : std::uint8_t { Bool, Integer, Real, Choice, String };

/// One row of the knob table.
struct Knob {
  const char* name;  ///< the environment variable
  KnobKind kind;
  /// The default, spelled as the environment would spell it. Empty: the
  /// caller derives the default from the machine, and an unset knob
  /// resolves to T{} (0 or ""), which the range rules out as a set value.
  const char* fallback;
  /// Integer/Real: the accepted environment values, inclusive.
  double min = 0;
  double max = std::numeric_limits<double>::infinity();
  /// Choice: the accepted spellings (case-insensitive); spelling i
  /// resolves to enumerator i of the caller's enum.
  std::array<const char*, 3> choices{};
};

/// The rows; BUILDING.md's runtime configuration reference documents each.
namespace knob {

// Placement, location memory, re-placement, stealing (rt::ProgramOptions).
inline constexpr Knob kAffinity{"ORWL_AFFINITY", KnobKind::Bool, "0"};
inline constexpr Knob kDataTransfer{"ORWL_DATA_TRANSFER", KnobKind::Choice,
                                    "owner", 0, 0,
                                    {"off", "owner"}};
inline constexpr Knob kReplace{"ORWL_REPLACE", KnobKind::Choice, "off", 0, 0,
                               {"off", "passive", "auto"}};
/// The divergence is at most 1, so a threshold above 1 never triggers.
inline constexpr Knob kReplaceThreshold{"ORWL_REPLACE_THRESHOLD",
                                        KnobKind::Real, "0.25", 0};
inline constexpr Knob kReplaceDecay{"ORWL_REPLACE_DECAY", KnobKind::Real,
                                    "0.5", 0, 1};
inline constexpr Knob kReplaceInterval{"ORWL_REPLACE_INTERVAL",
                                       KnobKind::Integer, "16", 1};
inline constexpr Knob kSteal{"ORWL_STEAL", KnobKind::Choice, "all", 0, 0,
                             {"off", "all"}};

// Topology and memory binding (topo).
/// No fixed default: unset probes the host.
inline constexpr Knob kTopology{"ORWL_TOPOLOGY", KnobKind::String, ""};
/// Read on every MemBind call, so tests can flip it mid-process.
inline constexpr Knob kMemBind{"ORWL_MEMBIND", KnobKind::Choice, "auto", 0,
                               0, {"auto", "emulate"}};

// Multi-tenant server (server::ServerOptions).
inline constexpr Knob kServerMaxTenants{"ORWL_SERVER_MAX_TENANTS",
                                        KnobKind::Integer, "8", 1};
inline constexpr Knob kServerQueueCap{"ORWL_SERVER_QUEUE_CAP",
                                      KnobKind::Integer, "256", 1};
inline constexpr Knob kServerGrowBacklog{"ORWL_SERVER_GROW_BACKLOG",
                                         KnobKind::Integer, "2", 1};
inline constexpr Knob kServerShrinkIdleMs{"ORWL_SERVER_SHRINK_IDLE_MS",
                                          KnobKind::Integer, "50", 1};

// Distributed transport (dist; read by its examples and benches).
inline constexpr Knob kDist{"ORWL_DIST", KnobKind::Choice, "off", 0, 0,
                            {"off", "shm", "tcp"}};
inline constexpr Knob kDistPort{"ORWL_DIST_PORT", KnobKind::Integer, "0", 0,
                                65535};
inline constexpr Knob kDistShmSlots{"ORWL_DIST_SHM_SLOTS", KnobKind::Integer,
                                    "1024", 16};

}  // namespace knob

/// The table: every knob the runtime reads.
inline constexpr const Knob* kKnobs[] = {
    &knob::kAffinity, &knob::kDataTransfer, &knob::kReplace,
    &knob::kReplaceThreshold, &knob::kReplaceDecay, &knob::kReplaceInterval,
    &knob::kSteal, &knob::kTopology, &knob::kMemBind,
    &knob::kServerMaxTenants, &knob::kServerQueueCap,
    &knob::kServerGrowBacklog, &knob::kServerShrinkIdleMs, &knob::kDist,
    &knob::kDistPort, &knob::kDistShmSlots};

/// A knob read from the environment (or its default) and checked
/// against its row.
struct KnobValue {
  long integer = 0;  ///< Bool (0/1), Integer, Choice (the spelling's index)
  double real = 0;   ///< Real
  std::string text;  ///< the spelling read (String: the value)
};

/// The environment half of resolve(): the variable's value when set and
/// non-empty, else the row's default, parsed and range-checked. Read at
/// call time (tests flip knobs with ScopedEnv mid-process).
/// \throws std::invalid_argument naming the variable for a malformed or
///         out-of-range value.
KnobValue read_knob(const Knob& k);

/// Resolve knob `k`: `option` when set, else the environment, else the
/// row's default. T is the caller's type for the row: bool or an enum
/// over {0, 1} for Bool rows, an integer type for Integer rows, a
/// floating-point type for Real rows, an enum whose enumerators follow
/// the spellings for Choice rows, std::string for String rows. Explicit
/// options are not range-checked; the caller keeps its own handling.
template <class T>
T resolve(const Knob& k, std::optional<T> option = std::nullopt) {
  if (option) return *option;
  KnobValue v = read_knob(k);
  if constexpr (std::is_same_v<T, std::string>) {
    return std::move(v.text);
  } else if constexpr (std::is_floating_point_v<T>) {
    return static_cast<T>(v.real);
  } else {
    return static_cast<T>(v.integer);
  }
}

/// Spelling of enumerator `e` of Choice row `k` (the enum's to_string).
template <class E>
const char* choice_name(const Knob& k, E e) noexcept {
  const auto i = static_cast<std::size_t>(e);
  return i < k.choices.size() && k.choices[i] != nullptr ? k.choices[i]
                                                         : "?";
}

/// Raw environment lookup. Returns std::nullopt when the variable is unset.
/// Outside this module, code under src/ reads knobs only through resolve()
/// (CI lints for it).
std::optional<std::string> env_string(const char* name);

/// Throw std::invalid_argument for a malformed environment value:
/// `NAME="value": expected <expected>`. Shared by read_knob() and by
/// knobs whose values only their reader can validate (ORWL_TOPOLOGY).
[[noreturn]] void throw_bad_env(const char* name, std::string_view value,
                                std::string_view expected);

/// Case-insensitive ASCII string comparison (helper, exposed for tests).
bool iequals(std::string_view a, std::string_view b) noexcept;

/// RAII guard that sets (or, with nullptr, unsets) an environment variable
/// and restores the previous state on destruction. Tests that probe
/// env-driven behavior must use this instead of bare setenv/unsetenv so a
/// caller-provided value survives the test. Not thread-safe: the process
/// environment itself is not, so scope guards to single-threaded sections.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value);
  ~ScopedEnv();

  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  /// Re-point the variable at a new value (nullptr unsets) while keeping
  /// the originally saved state for restoration.
  void set(const char* value);

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

}  // namespace orwl::support
