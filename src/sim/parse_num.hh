/**
 * @file
 * Strict number parsing for user input: ttsim flags, --faults specs
 * and the bench drivers' TT_* environment knobs share one parser, so
 * "0.01xyz", "abc" and "" are usage errors everywhere instead of the
 * silent prefix or zero that atoi/strtod return.
 */

#ifndef TT_SIM_PARSE_NUM_HH
#define TT_SIM_PARSE_NUM_HH

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <type_traits>

#include "sim/logging.hh"

namespace tt
{

/**
 * The whole of @p v, the value of input @p what, as a T in [@p lo,
 * @p hi], or a usage error (tt_fatal): an empty value, trailing text,
 * or a value out of range. Integers parse in @p base; seeds and ticks
 * pass 0, which also takes the 0x and 0 prefixes.
 */
template <typename T>
T
parseNum(const std::string& what, const std::string& v, T lo, T hi,
         int base = 10)
{
    const char* s = v.c_str();
    char* end = nullptr;
    errno = 0;
    bool ok = !v.empty() && !std::isspace(static_cast<unsigned char>(*s));
    T x{};
    if constexpr (std::is_floating_point_v<T>) {
        x = std::strtod(s, &end);
        ok = ok && x >= lo && x <= hi; // and never NaN
    } else if constexpr (std::is_signed_v<T>) {
        const long long n = std::strtoll(s, &end, base);
        ok = ok && n >= lo && n <= hi;
        x = static_cast<T>(n);
    } else {
        // strtoull negates a leading '-' instead of refusing it.
        const unsigned long long n = std::strtoull(s, &end, base);
        ok = ok && *s != '-' && n >= lo && n <= hi;
        x = static_cast<T>(n);
    }
    if (!ok || errno == ERANGE || end != s + v.size())
        tt_fatal(what, ": want a number in [", lo, ", ", hi, "]");
    return x;
}

} // namespace tt

#endif // TT_SIM_PARSE_NUM_HH
