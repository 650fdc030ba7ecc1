// Spans around the benchmark's calls into each layer.
//
// Every timed call goes through a Probe, which reads the steady clock on
// the main thread before and after the call.  With a Tracer attached the
// probe also records a span (name, start, end, parent, node, block) in
// memory; the tracer writes them out as Chrome trace-event JSON at the end.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class Node : std::uint8_t { kProposer = 1, kValidator = 2 };

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1;  // index into spans(), -1 at top level
    Node node = Node::kProposer;
    std::uint32_t block = 0;
  };

  std::int32_t begin(const char* name, Node node, std::uint32_t block,
                     std::uint64_t start_ns);
  void end(std::int32_t id, std::uint64_t end_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Sum of the durations of `name` spans on `node`.
  std::uint64_t total_ns(const char* name, Node node) const;
  /// Durations of `name` spans, in milliseconds, in recording order.
  std::vector<double> durations_ms(const char* name) const;
  /// Self time (duration minus child spans) summed per span name.
  std::vector<std::pair<std::string, double>> self_ms_by_name() const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::int32_t open_ = -1;  // innermost open span
};

/// Times one call on the main thread; records a span when traced.
class Probe {
 public:
  Probe(Tracer* tracer, const char* name, Node node, std::uint32_t block)
      : tracer_(tracer), start_(now_ns()) {
    if (tracer_ != nullptr) id_ = tracer_->begin(name, node, block, start_);
  }

  /// Ends the span; returns its duration in milliseconds.
  double stop() {
    const std::uint64_t end = now_ns();
    if (tracer_ != nullptr) tracer_->end(id_, end);
    return static_cast<double>(end - start_) * 1e-6;
  }

 private:
  Tracer* tracer_;
  std::uint64_t start_;
  std::int32_t id_ = -1;
};

}  // namespace e2e
