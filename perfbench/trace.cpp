#include "trace.h"

#include <cstdio>
#include <utility>

namespace perfbench {

namespace {
constexpr std::size_t kDisabled = static_cast<std::size_t>(-2);
}  // namespace

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer), index_(kDisabled) {
  if (!tracer_.enabled_) return;
  index_ = tracer_.spans_.size();
  const std::size_t parent =
      tracer_.open_.empty() ? kNoParent : tracer_.open_.back();
  tracer_.spans_.push_back({std::move(name), Clock::now(), {}, parent});
  tracer_.open_.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (index_ == kDisabled) return;
  tracer_.spans_[index_].end = Clock::now();
  tracer_.open_.pop_back();
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(std::chrono::duration<double, std::milli>(s.end - s.start)
                        .count());
    }
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::now() : spans_.front().start;
  const auto micros = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const long long parent =
        s.parent == kNoParent ? -1 : static_cast<long long>(s.parent);
    // Span names are fixed identifiers from the benchmark source (letters,
    // digits, '.', '_', '-'), so they need no JSON escaping.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%lld}}",
                 i == 0 ? "" : ",\n", s.name.c_str(),
                 s.name.substr(0, s.name.find('.')).c_str(), micros(s.start),
                 micros(s.end) - micros(s.start), i, parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
