// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer of the library (nothing inside the library is instrumented).
// Each span keeps its name, start, end and the span that was open when it
// began; the whole set is written once, at exit, as Chrome trace-event JSON
// (opens in Perfetto or chrome://tracing).  Single-threaded by design: the
// traced replay runs on one thread.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    /// Index of the enclosing span in spans(), or kNoParent.
    std::size_t parent;
  };
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  /// Opens a span on construction and closes it on destruction.  With a
  /// disabled tracer it records nothing.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations in milliseconds of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  /// Writes every span as a complete ("X") trace event, timestamps in
  /// microseconds from the first span; args carry the span id and parent id.
  /// Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

}  // namespace perfbench
