// Strict parsing, shared by the ODIN_THREADS / ODIN_SIMD environment knobs,
// the scenario-file parsers and odin_cli's on|off flags.
//
// std::strtol alone maps "abc" to 0 and "8cores" to 8, both silently — a
// typo in a deployment manifest would change behaviour without a trace.
// These values therefore parse strictly: the whole value must be well
// formed. A scenario file or an on|off flag rejects anything else; an
// environment knob warns once to stderr and falls back to its built-in
// default.
#pragma once

namespace odin::common {

/// Whole-token number parses: true only when all of `s` is one number
/// (std::strtod / base-10 std::strtoll syntax, nothing left over).
bool parse_f64(const char* s, double& out);
bool parse_i64(const char* s, long long& out);

/// Whole-token switch parse: "on"/"1" -> true, "off"/"0" -> false; any
/// other spelling returns false and leaves `out` untouched.
bool parse_on_off(const char* s, bool& out);

/// Strict integer env parse: the whole value must be a decimal number.
/// Returns false (and leaves `out` untouched) when the variable is unset
/// or empty; on garbage, warns to stderr and reports "unset" so the
/// caller's default applies.
bool env_long(const char* name, long long& out);

/// Raw value of `name`, or nullptr when unset or empty.
const char* env_string(const char* name);

}  // namespace odin::common
