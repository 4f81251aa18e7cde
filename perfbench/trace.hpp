// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions; nothing inside the library is instrumented.
// Spans stay in memory while the run executes and are written once, at the
// end, as Chrome trace-event JSON (chrome://tracing and Perfetto open it).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root span
  std::uint64_t session = 0;  ///< request the span belongs to (0 = none)
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = 0;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span and returns its id; close it with end().
  std::uint64_t begin(const char* name, std::uint64_t parent = 0, std::uint64_t session = 0) {
    Span span;
    span.name = name;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.session = session;
    span.start_ns = now_ns();
    spans_.push_back(span);
    return span.id;
  }

  /// Closes span `id` and returns its duration in nanoseconds.
  std::int64_t end(std::uint64_t id) {
    Span& span = spans_[id - 1];
    span.end_ns = now_ns();
    return span.duration_ns();
  }

  /// Times `fn()` as a child span of `parent` and returns its duration.
  template <typename Fn>
  std::int64_t time(const char* name, std::uint64_t parent, std::uint64_t session, Fn&& fn) {
    const std::uint64_t id = begin(name, parent, session);
    fn();
    return end(id);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations of every closed span named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.end_ns != 0 && name == span.name) {
        out.push_back(static_cast<double>(span.duration_ns()));
      }
    }
    return out;
  }

  /// Writes every span as a Chrome trace-event "complete" event (ph "X",
  /// microsecond timestamps); `metadata` becomes the file's "otherData".
  bool write_chrome(const std::string& path,
                    const std::map<std::string, std::string>& metadata) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::string other = "{";
    for (const auto& [key, value] : metadata) {
      dhtidx::json::append_field(other, key.c_str(), value);
    }
    other += "}";
    std::fprintf(file, "{\"displayTimeUnit\":\"ns\",\"otherData\":%s,\"traceEvents\":[",
                 other.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                   "\"session\":%llu}}",
                   i == 0 ? "" : ",", span.name, static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.duration_ns()) / 1e3,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.session));
    }
    std::fputs("\n]}\n", file);
    return std::fclose(file) == 0;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
