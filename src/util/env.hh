/**
 * @file
 * Centralized parsing of the OBFUSMEM_* environment knobs.
 *
 * Every knob used to hand-roll its own std::getenv + conversion
 * (aes128, event_queue, the sweep runner, the benches), with silently
 * divergent behavior on malformed values. These helpers give one
 * place for the conventions: values are read once per knob (stable
 * across threads, like the existing defaultImpl() latches), invalid
 * values warn once and fall back to the documented default, and an
 * empty string counts as unset.
 */

#ifndef OBFUSMEM_UTIL_ENV_HH
#define OBFUSMEM_UTIL_ENV_HH

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "util/logging.hh"

namespace obfusmem {
namespace env {

/** Raw value of a knob, or nullptr when unset or empty. */
inline const char *
raw(const char *name)
{
    const char *v = std::getenv(name);
    return (v && *v) ? v : nullptr;
}

/** Boolean knob: true when set to any non-empty value. */
inline bool
flag(const char *name)
{
    return raw(name) != nullptr;
}

/**
 * Parse a whole string as an unsigned number in @p base: digits only,
 * with no sign, whitespace, base prefix or trailing characters, and no
 * overflow. std::nullopt on anything else. The knobs below, the
 * command-line flags and the trace reader all parse numbers here, so
 * a value means the same wherever it is written.
 */
inline std::optional<uint64_t>
parseU64(std::string_view s, int base = 10)
{
    uint64_t v = 0;
    const char *end = s.data() + s.size();
    auto [stop, ec] = std::from_chars(s.data(), end, v, base);
    if (ec != std::errc() || stop != end)
        return std::nullopt;
    return v;
}

/**
 * Unsigned integer knob. Warns (once per call site pattern is not
 * tracked; callers latch the result) and returns @p def on a value
 * that is not a plain non-negative decimal number, or that exceeds
 * @p max. Callers pass the largest value their use can hold: the
 * range of the type they store it in, or a documented capacity.
 */
inline uint64_t
u64(const char *name, uint64_t def, uint64_t max = UINT64_MAX)
{
    const char *v = raw(name);
    if (!v)
        return def;
    const std::optional<uint64_t> parsed = parseU64(v);
    if (!parsed) {
        warn(name, "=\"", v, "\" is not a valid number; using default ",
             def);
        return def;
    }
    if (*parsed > max) {
        warn(name, "=", v, " is above its maximum ", max,
             "; using default ", def);
        return def;
    }
    return *parsed;
}

/**
 * Parse a whole string as a plain non-negative decimal number
 * (fractional part allowed): no sign, leading whitespace or trailing
 * characters, and a finite result. std::nullopt on anything else.
 */
inline std::optional<double>
parseF64(const char *s)
{
    char *end = nullptr;
    errno = 0;
    double parsed = std::strtod(s, &end);
    bool leading_digit = (s[0] >= '0' && s[0] <= '9') || s[0] == '.';
    if (!leading_digit || end == s || *end != '\0' || errno == ERANGE
        || !std::isfinite(parsed) || parsed < 0)
        return std::nullopt;
    return parsed;
}

/**
 * Floating-point knob (for probabilities and ratios). Same contract
 * as u64: parsed by parseF64, warn-and-default on anything else.
 */
inline double
f64(const char *name, double def)
{
    const char *v = raw(name);
    if (!v)
        return def;
    const std::optional<double> parsed = parseF64(v);
    if (!parsed) {
        warn(name, "=\"", v, "\" is not a valid number; using default ",
             def);
        return def;
    }
    return *parsed;
}

/**
 * Worker count from a requested number (OBFUSMEM_BENCH_JOBS,
 * `fig5_datacenter --shards`): 0 means "one per
 * hardware thread" (with a fallback of 1 when the runtime cannot
 * report concurrency), and the result is clamped to @p cap — neither
 * a sweep nor a shard set ever usefully exceeds a couple hundred
 * workers, and a typo'd huge value would otherwise try to spawn that
 * many threads.
 */
inline unsigned
workers(uint64_t requested, unsigned cap = 256)
{
    if (requested == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1u;
    }
    return static_cast<unsigned>(requested > cap ? cap : requested);
}

/** Worker-count knob: parsed like u64, resolved by workers(). */
inline unsigned
jobs(const char *name, unsigned def, unsigned cap = 256)
{
    return workers(u64(name, def), cap);
}

/**
 * Enumerated knob: returns the index of @p value's match in
 * @p allowed, or @p def_index after warning when the value is set
 * but matches nothing. Index 0..n-1 follows the order of @p allowed.
 */
inline size_t
choice(const char *name, std::initializer_list<const char *> allowed,
       size_t def_index)
{
    const char *v = raw(name);
    if (!v)
        return def_index;
    size_t i = 0;
    for (const char *a : allowed) {
        if (std::string_view(v) == a)
            return i;
        ++i;
    }
    std::string options;
    for (const char *a : allowed) {
        if (!options.empty())
            options += ", ";
        options += a;
    }
    warn(name, "=\"", v, "\" is not one of {", options,
         "}; using the default");
    return def_index;
}

} // namespace env
} // namespace obfusmem

#endif // OBFUSMEM_UTIL_ENV_HH
