/**
 * @file
 * gem5-style status and error reporting: panic() for simulator bugs,
 * fatal() for user/configuration errors, warn()/inform() for status.
 */

#ifndef TT_SIM_LOGGING_HH
#define TT_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace tt
{

/** Thrown by tt_fatal: a user or configuration error, not a bug. */
struct FatalError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

namespace log_detail
{

/** Concatenate a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream oss;
    (oss << ... << args);
    return oss.str();
}

[[noreturn]] void panicImpl(const char* file, int line,
                            const std::string& msg);
[[noreturn]] void fatalImpl(const char* file, int line,
                            const std::string& msg);
void warnImpl(const std::string& msg);
void informImpl(const std::string& msg);

/** Global verbosity: 0 = silent, 1 = warn, 2 = inform. */
int verbosity();
void setVerbosity(int level);

} // namespace log_detail

/** Set global log verbosity (0 silent, 1 warnings, 2 everything). */
inline void
setLogVerbosity(int level)
{
    log_detail::setVerbosity(level);
}

/**
 * Hook invoked (once, recursion-guarded) by tt_panic after printing
 * the panic message and before throwing — the crash flight recorder
 * uses it to dump its ring tails into the failure report. Pass
 * nullptr to clear. Returns the previous hook.
 */
using PanicHook = void (*)();
PanicHook setPanicHook(PanicHook hook);

} // namespace tt

/**
 * Report an internal simulator bug and abort. Use for conditions that
 * can never happen regardless of user input.
 */
#define tt_panic(...)                                                      \
    ::tt::log_detail::panicImpl(__FILE__, __LINE__,                        \
                                ::tt::log_detail::concat(__VA_ARGS__))

/**
 * Report an unrecoverable user/configuration error: print a "fatal:"
 * line on stderr and throw FatalError (ttsim exits 2 on it).
 */
#define tt_fatal(...)                                                      \
    ::tt::log_detail::fatalImpl(__FILE__, __LINE__,                        \
                                ::tt::log_detail::concat(__VA_ARGS__))

/** Non-fatal warning about possibly incorrect behaviour. */
#define tt_warn(...)                                                       \
    ::tt::log_detail::warnImpl(::tt::log_detail::concat(__VA_ARGS__))

/** Informational status message. */
#define tt_inform(...)                                                     \
    ::tt::log_detail::informImpl(::tt::log_detail::concat(__VA_ARGS__))

/** Panic unless a simulator invariant holds. */
#define tt_assert(cond, ...)                                               \
    do {                                                                   \
        if (!(cond)) {                                                     \
            tt_panic("assertion failed: ", #cond, " ",                     \
                     ::tt::log_detail::concat(__VA_ARGS__));               \
        }                                                                  \
    } while (0)

#endif // TT_SIM_LOGGING_HH
