#include "net/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../net/test_util.hpp"
#include "net/host.hpp"

namespace scidmz::net {
namespace {

using namespace scidmz::sim::literals;
using testutil::Scenario;

/// Captures every packet delivered to a bound UDP port.
class Capture : public PacketSink {
 public:
  void onPacket(const Packet& p) override { packets.push_back(p); }
  std::vector<Packet> packets;
};

struct TwoHosts {
  explicit TwoHosts(Scenario& s, LinkParams params = {})
      : a(s.topo.addHost("a", Address(10, 0, 0, 1))),
        b(s.topo.addHost("b", Address(10, 0, 0, 2))),
        link(s.topo.connect(a, b, params)) {
    s.topo.computeRoutes();
    b.bind(Protocol::kUdp, 7, capture);
  }
  Host& a;
  Host& b;
  Link& link;
  Capture capture;
};

Packet probeTo(Address dst, sim::DataSize payload) {
  Packet p;
  p.flow = FlowKey{Address{}, dst, 99, 7, Protocol::kUdp};
  p.body = ProbeHeader{};
  p.payload = payload;
  return p;
}

TEST(Link, DeliversAfterSerializationPlusPropagation) {
  Scenario s;
  LinkParams params;
  params.rate = 1_Gbps;
  params.delay = 1_ms;
  TwoHosts net{s, params};

  net.a.send(probeTo(net.b.address(), 1472_B));  // 1500B on the wire
  s.simulator.run();

  ASSERT_EQ(net.capture.packets.size(), 1u);
  // 1500B at 1Gbps = 12us serialization + 1ms propagation.
  EXPECT_EQ(s.simulator.now(), sim::SimTime::zero() + 1_ms + 12_us);
}

TEST(Link, BackToBackPacketsSerializeSequentially) {
  Scenario s;
  LinkParams params;
  params.rate = 1_Gbps;
  params.delay = 0_ns;
  TwoHosts net{s, params};

  for (int i = 0; i < 10; ++i) net.a.send(probeTo(net.b.address(), 1472_B));
  s.simulator.run();

  ASSERT_EQ(net.capture.packets.size(), 10u);
  EXPECT_EQ(s.simulator.now(), sim::SimTime::zero() + 120_us);
}

TEST(Link, RandomLossDropsApproximatelyAtRate) {
  Scenario s;
  LinkParams params;
  params.rate = 10_Gbps;
  TwoHosts net{s, params};
  net.link.setLossModel(0, std::make_unique<RandomLoss>(0.01, s.rng.fork(1)));

  const int n = 20000;
  for (int i = 0; i < n; ++i) net.a.send(probeTo(net.b.address(), 100_B));
  s.simulator.run();

  const double lossFrac = net.link.stats(0).lossFraction();
  EXPECT_NEAR(lossFrac, 0.01, 0.003);
  EXPECT_EQ(net.capture.packets.size(),
            static_cast<std::size_t>(n) - net.link.stats(0).lost);
}

TEST(Link, PeriodicLossDropsExactlyOneInN) {
  Scenario s;
  TwoHosts net{s};
  net.link.setLossModel(0, std::make_unique<PeriodicLoss>(100));

  for (int i = 0; i < 1000; ++i) net.a.send(probeTo(net.b.address(), 100_B));
  s.simulator.run();

  EXPECT_EQ(net.link.stats(0).lost, 10u);
  EXPECT_EQ(net.capture.packets.size(), 990u);
}

TEST(Link, RepairRemovesLoss) {
  Scenario s;
  TwoHosts net{s};
  net.link.setLossModel(0, std::make_unique<PeriodicLoss>(2));
  for (int i = 0; i < 10; ++i) net.a.send(probeTo(net.b.address(), 100_B));
  s.simulator.run();
  EXPECT_EQ(net.link.stats(0).lost, 5u);

  net.link.repair();
  for (int i = 0; i < 10; ++i) net.a.send(probeTo(net.b.address(), 100_B));
  s.simulator.run();
  EXPECT_EQ(net.link.stats(0).lost, 5u);  // unchanged
  EXPECT_EQ(net.capture.packets.size(), 15u);
}

TEST(Link, LossIsDirectional) {
  Scenario s;
  TwoHosts net{s};
  net.link.setLossModel(1, std::make_unique<PeriodicLoss>(1));  // b->a drops all

  // a -> b still works.
  net.a.send(probeTo(net.b.address(), 100_B));
  s.simulator.run();
  EXPECT_EQ(net.capture.packets.size(), 1u);
}

TEST(Link, EgressQueueOverflowDropsBeforeWire) {
  Scenario s;
  LinkParams params;
  params.rate = 1_Mbps;  // slow drain
  TwoHosts net{s, params};
  auto& nicQueue = net.a.interface(0).queue();
  nicQueue.setCapacity(3000_B);

  for (int i = 0; i < 100; ++i) net.a.send(probeTo(net.b.address(), 1000_B));
  s.simulator.run();

  EXPECT_GT(nicQueue.stats().dropped, 0u);
  EXPECT_EQ(net.capture.packets.size(),
            static_cast<std::size_t>(nicQueue.stats().enqueued));
}

}  // namespace
}  // namespace scidmz::net
