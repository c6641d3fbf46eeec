#include "src/base/log.h"

#include <cstdio>
#include <cstdlib>

namespace kite {
namespace {

constexpr LogLevel kThreshold = LogLevel::kWarning;
FatalHandler g_fatal_handler;
bool g_in_fatal_handler = false;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
    case LogLevel::kFatal:
      return "FATAL";
  }
  return "?";
}

}  // namespace

FatalHandler SetFatalHandler(FatalHandler handler) {
  FatalHandler previous = std::move(g_fatal_handler);
  g_fatal_handler = std::move(handler);
  return previous;
}

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level), file_(file), line_(line) {}

LogMessage::~LogMessage() {
  if (level_ >= kThreshold) {
    const char* base = file_;
    for (const char* p = file_; *p != '\0'; ++p) {
      if (*p == '/') {
        base = p + 1;
      }
    }
    std::fprintf(stderr, "[%s %s:%d] %s\n", LevelName(level_), base, line_,
                 stream_.str().c_str());
  }
  if (level_ == LogLevel::kFatal) {
    // The check message above is already on stderr, so the bundle the
    // handler dumps can reference it; the re-entrancy guard means a fatal
    // inside the handler aborts with the partial dump instead of recursing.
    if (g_fatal_handler && !g_in_fatal_handler) {
      g_in_fatal_handler = true;
      g_fatal_handler();
    }
    std::abort();
  }
}

}  // namespace kite
