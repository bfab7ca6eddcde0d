#include <fstream>
#include <map>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

int SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op_;
  s.start = wall_now();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int id) {
  // Scopes are RAII objects on one thread, so the span closing is always
  // the innermost open one.
  spans_[static_cast<std::size_t>(id)].end = wall_now();
  stack_.pop_back();
}

std::vector<SpanLog::Total> SpanLog::totals() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, Total> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Total& t = by_name[spans_[i].name];
    t.name = spans_[i].name;
    ++t.calls;
    t.wall_s += spans_[i].end - spans_[i].start;
    t.self_s += spans_[i].end - spans_[i].start - child[i];
  }
  std::vector<Total> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  os << "[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"start_us\": " << (s.start - origin) * 1e6
       << ", \"end_us\": " << (s.end - origin) * 1e6
       << ", \"parent\": " << s.parent << ", \"op\": " << s.op << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]\n";
}

} // namespace perfbench
