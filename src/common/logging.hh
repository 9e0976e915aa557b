/**
 * @file
 * Minimal logging and error handling, modelled on gem5's
 * panic()/fatal()/warn() conventions:
 *
 *  - panic():  an internal invariant was violated — a bug in this
 *              library. Aborts (so tests and debuggers catch it).
 *  - fatal():  the user asked for something impossible (bad config).
 *              Exits with status 1.
 *  - warn()/inform(): advisory messages on stderr.
 *
 * Debug tracing is compiled in but off by default; enable per-run with
 * Logger::setLevel.
 */

#ifndef COMMON_LOGGING_HH
#define COMMON_LOGGING_HH

#include <sstream>
#include <string>

namespace common {

enum class LogLevel
{
    Trace,
    Debug,
    Info,
    Warn,
    Error,
    Off,
};

class Logger
{
  public:
    static void setLevel(LogLevel level);
    static LogLevel level();

    static void log(LogLevel level, const std::string &msg);

    [[noreturn]] static void panic(const std::string &msg);
    [[noreturn]] static void fatal(const std::string &msg);
};

/** Convenience stream-style helpers. */
#define MILANA_LOG(level, expr)                                          \
    do {                                                                 \
        if (static_cast<int>(level) >=                                   \
            static_cast<int>(::common::Logger::level())) {               \
            std::ostringstream os_;                                      \
            os_ << expr;                                                 \
            ::common::Logger::log(level, os_.str());                     \
        }                                                                \
    } while (0)

#define LOG_TRACE(expr) MILANA_LOG(::common::LogLevel::Trace, expr)
#define LOG_DEBUG(expr) MILANA_LOG(::common::LogLevel::Debug, expr)
#define LOG_INFO(expr) MILANA_LOG(::common::LogLevel::Info, expr)
#define LOG_WARN(expr) MILANA_LOG(::common::LogLevel::Warn, expr)

/**
 * PANIC and FATAL format their message in an immediately-invoked,
 * out-of-line cold lambda, so the std::ostringstream lives on that
 * helper's stack. Built in place instead, inside a coroutine it would
 * take a slot (~380 B) in every frame that merely contains the call.
 */
#define MILANA_DIE(sink, expr)                                           \
    do {                                                                 \
        [&]() __attribute__((cold, noinline, noreturn)) {                \
            std::ostringstream os_;                                      \
            os_ << expr;                                                 \
            ::common::Logger::sink(os_.str());                           \
        }();                                                             \
    } while (0)

#define PANIC(expr) MILANA_DIE(panic, expr)
#define FATAL(expr) MILANA_DIE(fatal, expr)

} // namespace common

#endif // COMMON_LOGGING_HH
