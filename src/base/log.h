// Minimal leveled logging for the Kite reproduction.
//
// Logging is intentionally tiny: simulation components log through
// KITE_LOG(level) streams, and messages below kWarning are discarded.
#ifndef SRC_BASE_LOG_H_
#define SRC_BASE_LOG_H_

#include <functional>
#include <sstream>
#include <string>

namespace kite {

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarning = 2,
  kError = 3,
  kFatal = 4,
};

// Crash hook: invoked once when a kFatal message (KITE_CHECK failure) fires,
// after the message itself is written to stderr and before std::abort().
// KiteSystem installs a handler that dumps the one-shot diagnostic bundle
// (flight recorder, health table, pending events, metrics) so an abort in
// any binary leaves a black box behind. Returns the previously installed
// handler so nested owners can restore it on destruction. A fatal raised
// *while* the handler runs aborts immediately instead of recursing.
using FatalHandler = std::function<void()>;
FatalHandler SetFatalHandler(FatalHandler handler);

// One log statement. Accumulates a message and emits it on destruction.
// kFatal aborts the process after emitting.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  const char* file_;
  int line_;
  std::ostringstream stream_;
};

}  // namespace kite

#define KITE_LOG(level)                                                                  \
  ::kite::LogMessage(::kite::LogLevel::k##level, __FILE__, __LINE__).stream()

#define KITE_CHECK(cond)                                                                 \
  if (!(cond)) KITE_LOG(Fatal) << "Check failed: " #cond " "

#endif  // SRC_BASE_LOG_H_
