#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace orwl::support;

// ---------------------------------------------------------------- env ----

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("ORWL_TEST_VAR"); }
};

TEST_F(EnvTest, UnsetReturnsNullopt) {
  unsetenv("ORWL_TEST_VAR");
  EXPECT_FALSE(env_string("ORWL_TEST_VAR").has_value());
}

TEST_F(EnvTest, SetReturnsValue) {
  setenv("ORWL_TEST_VAR", "hello", 1);
  EXPECT_EQ(env_string("ORWL_TEST_VAR").value(), "hello");
}

// Test rows over ORWL_TEST_VAR, one per parser behind resolve().
constexpr Knob kTestFalse{"ORWL_TEST_VAR", KnobKind::Bool, "0"};
constexpr Knob kTestTrue{"ORWL_TEST_VAR", KnobKind::Bool, "1"};
constexpr Knob kTestLong{"ORWL_TEST_VAR", KnobKind::Integer, "99", -1000};
constexpr Knob kTestReal{"ORWL_TEST_VAR", KnobKind::Real, "1.5", -1};

TEST_F(EnvTest, BoolTruthySpellings) {
  for (const char* v : {"1", "true", "TRUE", "yes", "on", "On"}) {
    setenv("ORWL_TEST_VAR", v, 1);
    EXPECT_TRUE(resolve<bool>(kTestFalse)) << v;
  }
}

TEST_F(EnvTest, BoolFalsySpellings) {
  for (const char* v : {"0", "false", "no", "off", "OFF"}) {
    setenv("ORWL_TEST_VAR", v, 1);
    EXPECT_FALSE(resolve<bool>(kTestTrue)) << '"' << v << '"';
  }
}

TEST_F(EnvTest, BoolRejectsGarbageNamingTheVariable) {
  setenv("ORWL_TEST_VAR", "banana", 1);
  try {
    (void)resolve<bool>(kTestTrue);
    FAIL() << "garbage boolean must throw, not fall back";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ORWL_TEST_VAR"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("banana"), std::string::npos)
        << e.what();
  }
}

TEST_F(EnvTest, BoolFallbackOnUnset) {
  unsetenv("ORWL_TEST_VAR");
  EXPECT_TRUE(resolve<bool>(kTestTrue));
  EXPECT_FALSE(resolve<bool>(kTestFalse));
}

TEST_F(EnvTest, LongParsesAndFallsBack) {
  setenv("ORWL_TEST_VAR", "42", 1);
  EXPECT_EQ(resolve<long>(kTestLong), 42);
  setenv("ORWL_TEST_VAR", "-7", 1);
  EXPECT_EQ(resolve<long>(kTestLong), -7);
  setenv("ORWL_TEST_VAR", "12x", 1);
  EXPECT_THROW(resolve<long>(kTestLong), std::invalid_argument);
  // Beyond `long`: strtol saturates at LONG_MAX/LONG_MIN with ERANGE; the
  // saturated value must not pass for a real setting.
  setenv("ORWL_TEST_VAR", "99999999999999999999", 1);
  EXPECT_THROW(resolve<long>(kTestLong), std::invalid_argument);
  setenv("ORWL_TEST_VAR", "-99999999999999999999", 1);
  EXPECT_THROW(resolve<long>(kTestLong), std::invalid_argument);
  unsetenv("ORWL_TEST_VAR");
  EXPECT_EQ(resolve<long>(kTestLong), 99);
}

TEST_F(EnvTest, DoubleParsesAndRejectsGarbage) {
  setenv("ORWL_TEST_VAR", "0.75", 1);
  EXPECT_DOUBLE_EQ(resolve<double>(kTestReal), 0.75);
  setenv("ORWL_TEST_VAR", "0.75oops", 1);
  EXPECT_THROW(resolve<double>(kTestReal), std::invalid_argument);
  unsetenv("ORWL_TEST_VAR");
  EXPECT_DOUBLE_EQ(resolve<double>(kTestReal), 1.5);
}

TEST_F(EnvTest, ScopedEnvRestoresPreviousValue) {
  setenv("ORWL_TEST_VAR", "original", 1);
  {
    ScopedEnv guard("ORWL_TEST_VAR", "shadow");
    EXPECT_EQ(env_string("ORWL_TEST_VAR").value(), "shadow");
    guard.set(nullptr);
    EXPECT_FALSE(env_string("ORWL_TEST_VAR").has_value());
  }
  EXPECT_EQ(env_string("ORWL_TEST_VAR").value(), "original");
}

TEST_F(EnvTest, ScopedEnvRestoresUnsetState) {
  unsetenv("ORWL_TEST_VAR");
  {
    ScopedEnv guard("ORWL_TEST_VAR", "transient");
    EXPECT_EQ(env_string("ORWL_TEST_VAR").value(), "transient");
  }
  EXPECT_FALSE(env_string("ORWL_TEST_VAR").has_value());
}

// -------------------------------------------------------- knob table ----

/// Whether `k`'s environment value `v` is rejected, naming the variable.
bool rejects(const Knob& k, const char* v) {
  ScopedEnv env(k.name, v);
  try {
    (void)read_knob(k);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(k.name), std::string::npos)
        << "the error must name the variable: " << e.what();
    return true;
  }
  return false;
}

/// A valid setting of `k` other than its default.
std::string other_value(const Knob& k) {
  switch (k.kind) {
    case KnobKind::Bool: return "1";
    case KnobKind::Integer:
    case KnobKind::Real:
      return std::to_string(
          static_cast<long>(std::isfinite(k.max) ? k.max : k.min + 3));
    case KnobKind::Choice:
      return k.choices[std::string(k.fallback) == k.choices[0] ? 1 : 0];
    case KnobKind::String: return "flat:2";
  }
  return "";
}

// One loop over every row: the default when unset, env then option
// precedence, case-insensitive spellings, and loud rejection of garbage,
// out-of-range and overflowing values.
TEST(KnobTable, EveryRowResolvesAndValidates) {
  for (const Knob* kp : kKnobs) {
    const Knob& k = *kp;
    SCOPED_TRACE(k.name);
    ScopedEnv env(k.name, nullptr);
    const std::string fallback = k.fallback;

    // Unset (and empty) gives the row's default; a row without one
    // resolves to T{} for the caller to derive.
    for (const char* unset : {static_cast<const char*>(nullptr), ""}) {
      env.set(unset);
      switch (k.kind) {
        case KnobKind::Bool:
        case KnobKind::Integer:
          EXPECT_EQ(resolve<long>(k),
                    fallback.empty() ? 0 : std::stol(fallback));
          break;
        case KnobKind::Real:
          EXPECT_DOUBLE_EQ(resolve<double>(k), std::stod(fallback));
          break;
        case KnobKind::Choice:
          EXPECT_STREQ(k.choices[resolve<std::size_t>(k)], k.fallback);
          break;
        case KnobKind::String:
          EXPECT_EQ(resolve<std::string>(k), fallback);
          break;
      }
    }

    // The environment beats the default; an explicit option beats both
    // and is passed through unchecked.
    const std::string other = other_value(k);
    ASSERT_NE(other, fallback);
    env.set(other.c_str());
    switch (k.kind) {
      case KnobKind::Bool:
      case KnobKind::Integer:
        EXPECT_EQ(resolve<long>(k), std::stol(other));
        EXPECT_EQ(resolve<long>(k, 12345L), 12345);
        break;
      case KnobKind::Real:
        EXPECT_DOUBLE_EQ(resolve<double>(k), std::stod(other));
        EXPECT_DOUBLE_EQ(resolve<double>(k, 7.5), 7.5);
        break;
      case KnobKind::Choice:
        EXPECT_STREQ(k.choices[resolve<std::size_t>(k)], other.c_str());
        EXPECT_EQ(resolve<std::size_t>(k, std::size_t{2}), 2u);
        break;
      case KnobKind::String:
        EXPECT_EQ(resolve<std::string>(k), other);
        EXPECT_EQ(resolve<std::string>(k, std::string("x")), "x");
        break;
    }

    // Spellings are case-insensitive; spelling i resolves to index i.
    if (k.kind == KnobKind::Bool) {
      for (const char* v : {"TRUE", "On", "yes"}) {
        env.set(v);
        EXPECT_TRUE(resolve<bool>(k)) << v;
      }
      env.set("OFF");
      EXPECT_FALSE(resolve<bool>(k));
    }
    for (std::size_t i = 0; i < k.choices.size() && k.choices[i]; ++i) {
      std::string upper = k.choices[i];
      for (char& c : upper) c = static_cast<char>(std::toupper(c));
      env.set(upper.c_str());
      EXPECT_EQ(resolve<std::size_t>(k), i) << upper;
    }

    // Garbage throws, naming the variable. A String row is validated by
    // its reader (detect_test covers a bad ORWL_TOPOLOGY).
    if (k.kind != KnobKind::String) {
      EXPECT_TRUE(rejects(k, "bogus!"));
    }

    // Below the range, above a finite one, and past `long` all throw.
    if (k.kind == KnobKind::Integer || k.kind == KnobKind::Real) {
      const std::string below = std::to_string(static_cast<long>(k.min) - 1);
      EXPECT_TRUE(rejects(k, below.c_str())) << below;
      if (std::isfinite(k.max)) {
        const std::string above =
            std::to_string(static_cast<long>(k.max) + 1);
        EXPECT_TRUE(rejects(k, above.c_str())) << above;
      }
      EXPECT_TRUE(rejects(k, k.kind == KnobKind::Integer
                                 ? "99999999999999999999"
                                 : "1e999"));
      EXPECT_TRUE(rejects(k, "nan"));
    }
  }
}

// BUILDING.md's runtime configuration reference documents the table:
// the same variables with the same defaults.
TEST(KnobTable, MatchesBuildingMd) {
  std::ifstream in(ORWL_SOURCE_DIR "/BUILDING.md");
  ASSERT_TRUE(in.good()) << "cannot read " ORWL_SOURCE_DIR "/BUILDING.md";
  std::map<std::string, std::string> documented;
  bool in_section = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) {
      in_section = line == "## Runtime configuration reference";
    }
    if (!in_section || line.rfind("| `ORWL_", 0) != 0) continue;
    // | `NAME` | values (`default`) | field | effect |; the default is
    // the backticked text in the values' last parentheses, or empty when
    // those parentheses hold prose ("(unset: probe sysfs)").
    const std::size_t name_end = line.find('`', 3);
    const std::size_t values = line.find('|', name_end) + 1;
    const std::string cell =
        line.substr(values, line.find('|', values) - values);
    const std::size_t open = cell.rfind("(`");
    const bool prose = open == std::string::npos || cell.rfind('(') != open;
    documented[line.substr(3, name_end - 3)] =
        prose ? "" : cell.substr(open + 2, cell.find('`', open + 2) - open - 2);
  }
  std::map<std::string, std::string> table;
  for (const Knob* k : kKnobs) table[k->name] = k->fallback;
  EXPECT_EQ(documented, table);
}

TEST(IEquals, Basics) {
  EXPECT_TRUE(iequals("TreeMatch", "treematch"));
  EXPECT_FALSE(iequals("abc", "abcd"));
  EXPECT_TRUE(iequals("", ""));
}

// ---------------------------------------------------------------- rng ----

TEST(SplitMix64, DeterministicForSeed) {
  SplitMix64 a(123);
  SplitMix64 b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(SplitMix64, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a(), b());
}

TEST(SplitMix64, BelowStaysInRange) {
  SplitMix64 g(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(g.below(13), 13u);
  }
}

TEST(SplitMix64, UniformIsInUnitInterval) {
  SplitMix64 g(99);
  for (int i = 0; i < 1000; ++i) {
    const double u = g.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(SplitMix64, BelowIsRoughlyUniform) {
  SplitMix64 g(5);
  constexpr int kBuckets = 8;
  int counts[kBuckets] = {};
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) counts[g.below(kBuckets)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

// -------------------------------------------------------------- stats ----

TEST(Stats, MeanMedian) {
  const std::vector<double> xs{1, 2, 3, 4, 100};
  EXPECT_DOUBLE_EQ(mean(xs), 22.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  const std::vector<double> even{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(stddev({}), 0.0);
}

TEST(Stats, StddevOfConstantIsZero) {
  const std::vector<double> xs{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3, 1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 5.0);
}

TEST(Stats, Geomean) {
  const std::vector<double> xs{1, 4, 16};
  EXPECT_NEAR(geomean(xs), 4.0, 1e-12);
}

// -------------------------------------------------------------- table ----

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.header({"a", "bbbb"});
  t.row({"cccc", "d"});
  const std::string s = t.render();
  EXPECT_NE(s.find("a    | bbbb"), std::string::npos);
  EXPECT_NE(s.find("cccc | d"), std::string::npos);
}

TEST(TextTable, RaggedRowsRenderEmptyCells) {
  TextTable t;
  t.header({"x", "y", "z"});
  t.row({"1"});
  EXPECT_NO_THROW(t.render());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TextTable, SeparatorEmitsRule) {
  TextTable t;
  t.header({"h"});
  t.separator();
  t.row({"v"});
  const std::string s = t.render();
  // Header rule + explicit separator -> at least two dashed lines.
  std::size_t dashes = 0;
  for (std::size_t pos = s.find("-"); pos != std::string::npos;
       pos = s.find("\n-", pos + 1)) {
    ++dashes;
  }
  EXPECT_GE(dashes, 2u);
}

TEST(Format, Double) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

TEST(Format, Si) {
  EXPECT_EQ(format_si(950, 2), "950");
  EXPECT_EQ(format_si(1234567, 2), "1.23M");
  EXPECT_EQ(format_si(81e9, 1), "81.0G");
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(1024, 1), "1.0 KiB");
  EXPECT_EQ(format_bytes(20480.0 * 1024, 1), "20.0 MiB");
}

}  // namespace
