// Strict parsing (common/env.hpp): the environment readers behind
// ODIN_THREADS and ODIN_SIMD, the ODIN_SIMD kernel dispatch itself
// (reram/batch_gemm.hpp) and the on|off switch parser the scenario files
// and odin_cli share. The contract: a value must parse in full — a typo
// never silently changes behaviour.
#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hpp"
#include "reram/batch_gemm.hpp"

namespace odin {
namespace {

/// Scoped setenv/unsetenv so a failing assertion can't leak state into
/// the next test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr)
      ::unsetenv(name);
    else
      ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

constexpr const char* kVar = "ODIN_TEST_ENV_VAR";

TEST(Env, LongParsesWholeValue) {
  long long v = -1;
  {
    ScopedEnv env(kVar, "42");
    EXPECT_TRUE(common::env_long(kVar, v));
    EXPECT_EQ(v, 42);
  }
  {
    ScopedEnv env(kVar, "-7");
    EXPECT_TRUE(common::env_long(kVar, v));
    EXPECT_EQ(v, -7);
  }
}

TEST(Env, LongRejectsGarbageAndPartialParses) {
  for (const char* bad : {"abc", "12abc", "1.5", "", " 3", "3 "}) {
    long long v = 99;
    ScopedEnv env(kVar, bad);
    EXPECT_FALSE(common::env_long(kVar, v)) << "value '" << bad << "'";
    EXPECT_EQ(v, 99) << "out must be untouched for '" << bad << "'";
  }
}

TEST(Env, LongUnsetReturnsFalse) {
  ScopedEnv env(kVar, nullptr);
  long long v = 5;
  EXPECT_FALSE(common::env_long(kVar, v));
  EXPECT_EQ(v, 5);
}

TEST(Env, StringReturnsNullWhenUnsetOrEmpty) {
  {
    ScopedEnv env(kVar, nullptr);
    EXPECT_EQ(common::env_string(kVar), nullptr);
  }
  {
    ScopedEnv env(kVar, "");
    EXPECT_EQ(common::env_string(kVar), nullptr);
  }
  {
    ScopedEnv env(kVar, "hello");
    ASSERT_NE(common::env_string(kVar), nullptr);
    EXPECT_STREQ(common::env_string(kVar), "hello");
  }
}

TEST(Env, ParseSimdModeIsStrict) {
  using reram::gemm::SimdMode;
  SimdMode mode = SimdMode::kAvx2;
  EXPECT_TRUE(reram::gemm::parse_simd_mode("scalar", mode));
  EXPECT_EQ(mode, SimdMode::kScalar);
  EXPECT_TRUE(reram::gemm::parse_simd_mode("avx2", mode));
  EXPECT_EQ(mode, SimdMode::kAvx2);
  for (const char* bad : {"AVX2", "sse", "avx2 ", "", "scalar2"}) {
    SimdMode untouched = SimdMode::kScalar;
    EXPECT_FALSE(reram::gemm::parse_simd_mode(bad, untouched))
        << "value '" << bad << "'";
    EXPECT_EQ(untouched, SimdMode::kScalar);
  }
}

TEST(Env, ParseOnOffIsStrict) {
  bool v = false;
  for (const char* on : {"on", "1"}) {
    v = false;
    EXPECT_TRUE(common::parse_on_off(on, v)) << "value '" << on << "'";
    EXPECT_TRUE(v);
  }
  for (const char* off : {"off", "0"}) {
    v = true;
    EXPECT_TRUE(common::parse_on_off(off, v)) << "value '" << off << "'";
    EXPECT_FALSE(v);
  }
  for (const char* bad : {"yes", "ON", "off ", " on", "2", "true", ""}) {
    bool untouched = true;
    EXPECT_FALSE(common::parse_on_off(bad, untouched))
        << "value '" << bad << "'";
    EXPECT_TRUE(untouched);
  }
}

TEST(Env, SimdModeFromEnvFollowsStrictContract) {
  using reram::gemm::SimdMode;
  {
    ScopedEnv env("ODIN_SIMD", nullptr);
    EXPECT_EQ(reram::gemm::simd_mode_from_env(),
              reram::gemm::default_simd_mode());
  }
  {
    ScopedEnv env("ODIN_SIMD", "scalar");
    EXPECT_EQ(reram::gemm::simd_mode_from_env(), SimdMode::kScalar);
  }
  {
    // Garbage warns and falls back to the default — never a third state.
    ScopedEnv env("ODIN_SIMD", "neon");
    EXPECT_EQ(reram::gemm::simd_mode_from_env(),
              reram::gemm::default_simd_mode());
  }
  {
    // An explicit avx2 request resolves to avx2 when available and
    // degrades to scalar (with a warning) when not — never fails.
    ScopedEnv env("ODIN_SIMD", "avx2");
    const SimdMode want = reram::gemm::avx2_available()
                              ? SimdMode::kAvx2
                              : SimdMode::kScalar;
    EXPECT_EQ(reram::gemm::simd_mode_from_env(), want);
  }
}

}  // namespace
}  // namespace odin
