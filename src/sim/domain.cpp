#include "sim/domain.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace scidmz::sim {

ShardedSimulator::ShardedSimulator(std::vector<Simulator*> domains, Duration lookahead)
    : domains_(std::move(domains)), lookahead_(lookahead) {
  if (domains_.empty()) {
    throw std::invalid_argument("ShardedSimulator: at least one domain required");
  }
  for (Simulator* d : domains_) {
    if (d == nullptr) throw std::invalid_argument("ShardedSimulator: null domain");
  }
  if (lookahead_ <= Duration::zero()) {
    throw std::invalid_argument("ShardedSimulator: lookahead must be positive");
  }
  workers_.reserve(domains_.size() - 1);
  for (int d = 1; d < domainCount(); ++d) {
    workers_.emplace_back([this, d] { workerLoop(d); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::uint32_t ShardedSimulator::addChannel(int dstDomain, Duration delay) {
  if (dstDomain < 0 || dstDomain >= domainCount()) {
    throw std::invalid_argument("ShardedSimulator: channel destination out of range");
  }
  if (delay < lookahead_) {
    throw std::invalid_argument(
        "ShardedSimulator: channel delay below the lookahead floor");
  }
  if (channels_.size() >= kMaxChannels) {
    throw std::length_error("ShardedSimulator: channel id space exhausted");
  }
  auto ch = std::make_unique<Channel>();
  ch->dstDomain = dstDomain;
  ch->delay = delay;
  channels_.push_back(std::move(ch));
  return static_cast<std::uint32_t>(channels_.size() - 1);
}

void ShardedSimulator::post(std::uint32_t channel, SimTime at, std::function<void()> cb) {
  Channel& ch = *channels_[channel];
  std::lock_guard<std::mutex> lk(ch.mutex);
  const std::uint64_t seq = kBoundaryBand |
                            (static_cast<std::uint64_t>(channel) << kFifoBits) |
                            ch.nextFifo++;
  ch.pending.push_back(Message{at, seq, std::move(cb)});
}

void ShardedSimulator::drainChannels() {
  for (auto& ch : channels_) {
    std::vector<Message> batch;
    {
      std::lock_guard<std::mutex> lk(ch->mutex);
      batch.swap(ch->pending);
    }
    Simulator& dst = *domains_[static_cast<std::size_t>(ch->dstDomain)];
    for (Message& m : batch) {
      dst.restoreSchedule(m.at, m.seq, std::move(m.cb));
    }
  }
}

void ShardedSimulator::runEpoch(SimTime horizon) {
  if (domainCount() == 1) {
    domains_[0]->runBefore(horizon);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mutex_);
    horizon_ = horizon;
    done_ = 0;
    ++start_gen_;
  }
  cv_.notify_all();
  domains_[0]->runBefore(horizon);
  std::unique_lock<std::mutex> lk(mutex_);
  cv_.wait(lk, [this] { return done_ == domainCount() - 1; });
}

void ShardedSimulator::runUntil(SimTime deadline) {
  // Exclusive horizon one tick past the deadline: runBefore(past) executes
  // every event with time <= deadline, matching Simulator::runUntil.
  // Without channels no domain can reach another, so one epoch runs every
  // domain straight to the deadline: exactly the events, in exactly the
  // order, of Simulator::runUntil.
  const SimTime past = deadline + Duration::nanoseconds(1);
  for (;;) {
    drainChannels();
    SimTime horizon = past;
    if (!channels_.empty()) {
      SimTime tmin = SimTime::max();
      for (Simulator* d : domains_) tmin = std::min(tmin, d->nextEventTime());
      if (tmin < past && tmin + lookahead_ < past) horizon = tmin + lookahead_;
    }
    runEpoch(horizon);
    if (horizon == past) break;
  }
  // Canonicalize: messages produced in the final epoch arrive at
  // >= tmin + lookahead > deadline and stay pending in their channels.
  for (Simulator* d : domains_) d->advanceClockTo(deadline);
}

std::uint64_t ShardedSimulator::eventsExecuted() const {
  std::uint64_t total = 0;
  for (const Simulator* d : domains_) total += d->eventsExecuted();
  return total;
}

std::uint64_t ShardedSimulator::domainEvents(int domain) const {
  return domains_[static_cast<std::size_t>(domain)]->eventsExecuted();
}

std::size_t ShardedSimulator::pendingChannelMessages() const {
  std::size_t n = 0;
  for (const auto& ch : channels_) n += ch->pending.size();
  return n;
}

void ShardedSimulator::workerLoop(int domain) {
  std::uint64_t seen = 0;
  Simulator& sim = *domains_[static_cast<std::size_t>(domain)];
  for (;;) {
    SimTime horizon = SimTime::zero();
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait(lk, [&] { return shutdown_ || start_gen_ != seen; });
      if (shutdown_) return;
      seen = start_gen_;
      horizon = horizon_;
    }
    sim.runBefore(horizon);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      ++done_;
    }
    cv_.notify_all();
  }
}

}  // namespace scidmz::sim
