#include "sim/logging.hh"

#include <cstdio>

namespace tt
{
namespace log_detail
{

namespace
{
int g_verbosity = 1;
tt::PanicHook g_panicHook = nullptr;
bool g_inPanicHook = false;
} // namespace

int
verbosity()
{
    return g_verbosity;
}

void
setVerbosity(int level)
{
    g_verbosity = level;
}

void
panicImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    if (g_panicHook && !g_inPanicHook) {
        g_inPanicHook = true;
        g_panicHook();
        g_inPanicHook = false;
        std::fflush(stderr);
    }
    // Throwing (rather than abort()) lets unit tests assert on panics;
    // uncaught, it still terminates the process with a core-style trace.
    throw std::logic_error("tt panic: " + msg);
}

void
fatalImpl(const char* file, int line, const std::string& msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::fflush(stderr);
    throw FatalError("tt fatal: " + msg);
}

void
warnImpl(const std::string& msg)
{
    if (g_verbosity >= 1)
        std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string& msg)
{
    if (g_verbosity >= 2)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace log_detail

PanicHook
setPanicHook(PanicHook hook)
{
    PanicHook prev = log_detail::g_panicHook;
    log_detail::g_panicHook = hook;
    return prev;
}

} // namespace tt
