#include <algorithm>
#include <utility>

#include "bench.hpp"

namespace perfbench {

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t spanClockNs() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count();
}

int SpanLog::open(const char* name) {
  Span span;
  span.name = name;
  span.trace = trace_;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.startNs = spanClockNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].endNs = spanClockNs();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> selfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<std::size_t>(s.parent) >= spans.size()) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.startNs, p.startNs);
    const std::int64_t hi = std::min(s.endNs, p.endNs);
    if (hi > lo) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t curLo = 0;
    std::int64_t curHi = -1;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= curHi) {
        curHi = std::max(curHi, hi);
        continue;
      }
      if (open) covered += curHi - curLo;
      curLo = lo;
      curHi = hi;
      open = true;
    }
    if (open) covered += curHi - curLo;
    const std::int64_t duration = spans[i].endNs - spans[i].startNs;
    self[i] = static_cast<double>(duration - covered) * 1e-9;
  }
  return self;
}

std::map<std::string, double> selfSecondsByName(const std::vector<Span>& spans) {
  const std::vector<double> self = selfSeconds(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

}  // namespace perfbench
