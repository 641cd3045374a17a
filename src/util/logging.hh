/**
 * @file
 * Status and error reporting helpers in the gem5 tradition.
 *
 * twocs distinguishes between user mistakes (bad configuration:
 * fatal()) and internal invariant violations (library bugs: panic()).
 * inform()/warn() provide non-terminating status output. All message
 * functions accept printf-free, iostream-composable arguments.
 */

#ifndef TWOCS_UTIL_LOGGING_HH
#define TWOCS_UTIL_LOGGING_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace twocs {

/** Thrown by fatal(): the user asked for something unsatisfiable. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

namespace detail {

/** Concatenate a parameter pack into one string via a stream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

/** Global verbosity switch for inform()/warn(). */
bool &verboseFlag();

/** Write "<prefix>: <message>" as one line to stderr. */
void emitStatus(const char *prefix, const std::string &message);

} // namespace detail

/** Enable or disable inform()/warn() output (on by default). */
void setVerbose(bool verbose);

/** Report normal operating status to the user. */
template <typename... Args>
void
inform(Args &&...args)
{
    if (detail::verboseFlag())
        detail::emitStatus("info",
                           detail::concat(std::forward<Args>(args)...));
}

/** Alert the user to a suspicious but survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    if (detail::verboseFlag())
        detail::emitStatus("warn",
                           detail::concat(std::forward<Args>(args)...));
}

/**
 * Abort due to a user error (bad configuration, invalid argument).
 * Throws FatalError so library embedders can recover.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(detail::concat(std::forward<Args>(args)...));
}

/**
 * Abort due to an internal error that should never happen regardless
 * of user input. Throws PanicError.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw PanicError(detail::concat(std::forward<Args>(args)...));
}

/** fatal() unless a user-facing precondition holds. */
template <typename Cond, typename... Args>
void
fatalIf(const Cond &cond, Args &&...args)
{
    if (cond)
        fatal(std::forward<Args>(args)...);
}

/** panic() unless an internal invariant holds. */
template <typename Cond, typename... Args>
void
panicIf(const Cond &cond, Args &&...args)
{
    if (cond)
        panic(std::forward<Args>(args)...);
}

} // namespace twocs

#endif // TWOCS_UTIL_LOGGING_HH
