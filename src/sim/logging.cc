#include "logging.hh"

#include <cstdio>
#include <cstdlib>

namespace lynx::sim::detail {

namespace {

const char *
prefix(LogLevel level)
{
    switch (level) {
      case LogLevel::Warn:   return "warn";
      case LogLevel::Fatal:  return "fatal";
      case LogLevel::Panic:  return "panic";
    }
    return "?";
}

} // namespace

void
emit(LogLevel level, const std::string &msg)
{
    std::fprintf(stderr, "[%s] %s\n", prefix(level), msg.c_str());
}

void
terminate(LogLevel level, const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "[%s] %s (%s:%d)\n", prefix(level), msg.c_str(),
                 file, line);
    if (level == LogLevel::Panic)
        std::abort();
    std::exit(1);
}

} // namespace lynx::sim::detail
