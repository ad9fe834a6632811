#include "common/env.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace odin::common {

bool parse_f64(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

bool parse_i64(const char* s, long long& out) {
  char* end = nullptr;
  out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

bool parse_on_off(const char* s, bool& out) {
  if (std::strcmp(s, "on") == 0 || std::strcmp(s, "1") == 0) {
    out = true;
    return true;
  }
  if (std::strcmp(s, "off") == 0 || std::strcmp(s, "0") == 0) {
    out = false;
    return true;
  }
  return false;
}

bool env_long(const char* name, long long& out) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return false;
  long long v = 0;
  // strtoll skips leading whitespace; the strict contract does not.
  if (!parse_i64(env, v) ||
      (*env != '-' && *env != '+' && (*env < '0' || *env > '9'))) {
    std::fprintf(stderr,
                 "odin: ignoring %s='%s' (not an integer); using default\n",
                 name, env);
    return false;
  }
  out = v;
  return true;
}

const char* env_string(const char* name) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return nullptr;
  return env;
}

}  // namespace odin::common
