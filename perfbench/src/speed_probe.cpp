#include <algorithm>
#include <functional>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 20;  // 8 MiB
constexpr std::size_t kHeapCap = 4096;
constexpr int kSteps = 30000;

std::uint64_t splitMix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

SpeedProbe::SpeedProbe() : table_(kTableWords) {
  std::uint64_t state = 1;
  for (auto& w : table_) w = splitMix(state);
  heap_.reserve(kHeapCap + 1);
}

double SpeedProbe::measureOnce() {
  const auto t0 = Clock::now();
  std::uint64_t state = 0x5eed;
  std::uint64_t acc = 0;
  heap_.clear();
  for (int i = 0; i < kSteps; ++i) {
    const std::uint64_t x = splitMix(state);
    heap_.push_back(x);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    if (heap_.size() > kHeapCap) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      acc += heap_.back();
      heap_.pop_back();
    }
    const std::size_t j = x & (kTableWords - 1);
    acc ^= table_[j];
    table_[(j * 7 + acc) & (kTableWords - 1)] += x;
  }
  sink_ ^= acc;
  return secondsSince(t0);
}

double SpeedProbe::measure() {
  double s[3];
  for (double& v : s) v = measureOnce();
  std::sort(s, s + 3);
  return s[1];
}

}  // namespace perfbench
