/**
 * @file
 * Status and error reporting helpers.
 *
 * Follows the gem5 convention: panic() flags an internal simulator
 * bug and aborts; fatal() flags a user/configuration error and exits
 * cleanly with an error code; warn() reports a condition without
 * stopping the simulation.
 */

#ifndef LYNX_SIM_LOGGING_HH
#define LYNX_SIM_LOGGING_HH

#include <sstream>
#include <string>

namespace lynx::sim {

/** Severity of a log message. */
enum class LogLevel { Warn, Fatal, Panic };

namespace detail {

/** Emit @p msg at @p level; Fatal exits(1), Panic aborts. */
[[noreturn]] void terminate(LogLevel level, const std::string &msg,
                            const char *file, int line);

void emit(LogLevel level, const std::string &msg);

/** Concatenate a variadic pack through an ostringstream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/** Report a suspicious condition the simulation can survive. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::emit(LogLevel::Warn, detail::concat(std::forward<Args>(args)...));
}

/**
 * Abort due to an internal invariant violation (a simulator bug).
 * Use for conditions that should never happen regardless of input.
 */
#define LYNX_PANIC(...)                                                       \
    ::lynx::sim::detail::terminate(                                          \
        ::lynx::sim::LogLevel::Panic,                                        \
        ::lynx::sim::detail::concat(__VA_ARGS__), __FILE__, __LINE__)

/**
 * Exit due to a configuration or usage error (the user's fault).
 */
#define LYNX_FATAL(...)                                                       \
    ::lynx::sim::detail::terminate(                                          \
        ::lynx::sim::LogLevel::Fatal,                                        \
        ::lynx::sim::detail::concat(__VA_ARGS__), __FILE__, __LINE__)

/** Panic unless @p cond holds. */
#define LYNX_ASSERT(cond, ...)                                                \
    do {                                                                      \
        if (!(cond)) {                                                        \
            LYNX_PANIC("assertion failed: " #cond " ", ##__VA_ARGS__);        \
        }                                                                     \
    } while (0)

/**
 * Hot-path assertion: active in debug builds and in the sanitizer
 * lane (-DLYNX_SANITIZE=ON defines LYNX_ENABLE_DEBUG_ASSERTS), and
 * compiles to nothing in release builds so per-event invariants cost
 * zero on the schedule/run/deliver fast paths. Use LYNX_ASSERT for
 * cold-path invariants that should always be checked.
 */
#if !defined(NDEBUG) || defined(LYNX_ENABLE_DEBUG_ASSERTS)
#define LYNX_DEBUG_ASSERTS_ENABLED 1
#define LYNX_DEBUG_ASSERT(cond, ...) LYNX_ASSERT(cond, ##__VA_ARGS__)
#else
#define LYNX_DEBUG_ASSERTS_ENABLED 0
// The statically-dead branch keeps the condition and message
// type-checked (and their operands "used") in every lane; the
// optimizer deletes it, so release codegen is still empty.
#define LYNX_DEBUG_ASSERT(cond, ...)                                          \
    do {                                                                      \
        if (false) {                                                          \
            LYNX_ASSERT(cond, ##__VA_ARGS__);                                 \
        }                                                                     \
    } while (0)
#endif

/** Exit with a configuration error when @p cond holds. */
#define LYNX_FATAL_IF(cond, ...)                                              \
    do {                                                                      \
        if (cond) {                                                           \
            LYNX_FATAL(__VA_ARGS__);                                          \
        }                                                                     \
    } while (0)

} // namespace lynx::sim

#endif // LYNX_SIM_LOGGING_HH
