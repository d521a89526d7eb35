// Conservative parallel DES: N Simulators stitched by timestamped channels.
//
// A ShardedSimulator drives one Simulator per *domain* (a partition of the
// topology cut only at links whose propagation delay is at least the
// lookahead floor). Execution proceeds in barrier epochs:
//
//   1. Drain every channel, injecting messages into their destination
//      domain's queue under explicit (time, sequence) keys.
//   2. tmin = min over domains of the next pending event time.
//   3. Horizon H = min(tmin + lookahead, deadline + 1ns); when every queue
//      is idle the horizon jumps straight past the deadline (the
//      null-message-style advance — an idle channel never blocks progress).
//      With no channels at all nothing can cross domains, so H is always
//      deadline + 1ns: one epoch, the events of Simulator::runUntil.
//   4. Every domain runs its events with time strictly < H in parallel.
//
// Safety argument: a cross-domain message sent at time t >= tmin arrives at
// t + delay >= tmin + lookahead = H, so it can never land inside a window
// another domain already executed. Liveness: the domain holding tmin always
// executes at least the event at tmin (H > tmin), so every epoch makes
// progress.
//
// Determinism / partition invariance: boundary deliveries carry reserved
// sequence keys above 2^63 — (channel id, per-channel FIFO counter) — so
// they sort after same-time local events and in a channel-id order that is
// a property of the topology, not of the partition. A channel has exactly
// one sending domain (one link direction), so its FIFO order is the
// sender's deterministic execution order. Provided *every* cut-eligible
// link routes through a channel at every domain count (including 1), event
// interleaving is byte-identical at 1, 2, and 8 domains.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <condition_variable>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/units.hpp"

namespace scidmz::sim {

/// Drives N per-domain Simulators (non-owning) in conservative barrier
/// epochs. Construction spawns one worker thread per extra domain; domain 0
/// runs on the calling thread. All public methods except post() must be
/// called from the orchestrating thread between runs; post() is called by
/// domain threads while an epoch executes.
class ShardedSimulator {
 public:
  ShardedSimulator(std::vector<Simulator*> domains, Duration lookahead);
  ~ShardedSimulator();
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] int domainCount() const { return static_cast<int>(domains_.size()); }
  [[nodiscard]] Duration lookahead() const { return lookahead_; }

  /// Register a directed boundary channel into `dstDomain` with the given
  /// propagation delay (must be >= the lookahead floor). Returns the
  /// channel id used with post(). Channels must be registered in the same
  /// (topology-construction) order at every domain count — the id feeds
  /// the delivery sequence key.
  std::uint32_t addChannel(int dstDomain, Duration delay);

  /// Enqueue a delivery at absolute time `at` in the channel's destination
  /// domain. Callable from the sending domain's thread mid-epoch; the
  /// message is injected at the next barrier. The callback runs on the
  /// destination domain's thread and must touch only that domain's state.
  void post(std::uint32_t channel, SimTime at, std::function<void()> cb);

  /// Run all domains to `deadline` (events at the deadline execute, same
  /// contract as Simulator::runUntil). On return every domain's clock is
  /// exactly `deadline`. Channel messages beyond the deadline stay pending
  /// for the next run.
  void runUntil(SimTime deadline);
  /// Run for `d` from now (all domain clocks agree between runs).
  void runFor(Duration d) { runUntil(now() + d); }

  [[nodiscard]] SimTime now() const { return domains_[0]->now(); }
  [[nodiscard]] std::uint64_t eventsExecuted() const;
  [[nodiscard]] std::uint64_t domainEvents(int domain) const;
  [[nodiscard]] std::size_t channelCount() const { return channels_.size(); }
  /// Messages sitting in channels (not yet injected) — tests/teardown.
  [[nodiscard]] std::size_t pendingChannelMessages() const;

 private:
  struct Message {
    SimTime at;
    std::uint64_t seq;
    std::function<void()> cb;
  };
  // unique_ptr: std::mutex pins the Channel in place while channels_ grows.
  struct Channel {
    int dstDomain = 0;
    Duration delay = Duration::zero();
    std::uint64_t nextFifo = 0;
    std::mutex mutex;
    std::vector<Message> pending;
  };

  void workerLoop(int domain);
  void runEpoch(SimTime horizon);
  void drainChannels();

  // Boundary sequence band layout: bit 63 set, then channel id, then the
  // per-channel FIFO counter. Local sequences (EventQueue::next_seq_) stay
  // far below 2^63, so boundary deliveries sort after same-time local work.
  static constexpr std::uint64_t kBoundaryBand = std::uint64_t{1} << 63;
  static constexpr int kFifoBits = 40;
  static constexpr std::uint64_t kMaxChannels = std::uint64_t{1} << (63 - kFifoBits);

  std::vector<Simulator*> domains_;
  Duration lookahead_;
  std::vector<std::unique_ptr<Channel>> channels_;

  // Epoch barrier: the orchestrator bumps start_gen_ with the horizon set,
  // workers run their domain and count themselves into done_.
  std::mutex mutex_;
  std::condition_variable cv_;
  SimTime horizon_ = SimTime::zero();
  std::uint64_t start_gen_ = 0;
  int done_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace scidmz::sim
