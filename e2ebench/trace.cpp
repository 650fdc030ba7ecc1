#include "trace.hpp"

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

namespace e2e {

std::int32_t Tracer::begin(const char* name, Node node, std::uint32_t block,
                           std::uint64_t start_ns) {
  spans_.push_back(Span{name, start_ns, start_ns, open_, node, block});
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::end(std::int32_t id, std::uint64_t end_ns) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = end_ns;
  open_ = s.parent;
}

std::uint64_t Tracer::total_ns(const char* name, Node node) const {
  std::uint64_t total = 0;
  for (const Span& s : spans_)
    if (s.node == node && std::strcmp(s.name, name) == 0)
      total += s.end_ns - s.start_ns;
  return total;
}

std::vector<double> Tracer::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (std::strcmp(s.name, name) == 0)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_ms_by_name() const {
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
  }
  return {self.begin(), self.end()};
}

bool Tracer::write_chrome_json(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"block\":%u,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name, static_cast<unsigned>(s.node),
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.block,
                 s.parent);
  }
  std::fputs("],\"metadata\":{\"tid_1\":\"proposer\","
             "\"tid_2\":\"validator\"}}\n",
             f.get());
  return std::fflush(f.get()) == 0 && std::ferror(f.get()) == 0;
}

}  // namespace e2e
