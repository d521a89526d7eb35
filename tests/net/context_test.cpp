// net::Context::extension<T>: per-Context singletons keyed by a
// process-wide type id (tcp::FluidEngine, telemetry::Tracer and
// scenario::CallbackRegistry all attach this way).
#include "net/context.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "../net/test_util.hpp"

namespace scidmz::net {
namespace {

struct Counter {
  int value = 0;
};

TEST(Context, ExtensionIsPerContextSingleton) {
  testutil::Scenario h1;
  Counter& c1 = h1.ctx.extension<Counter>();
  Counter& c2 = h1.ctx.extension<Counter>();
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(c1.value, 0);  // value-initialized on first use
  ++c1.value;
  EXPECT_EQ(c2.value, 1);

  // A second Context gets its own instance — sweep cells never share state.
  testutil::Scenario h2;
  EXPECT_NE(&h2.ctx.extension<Counter>(), &c1);
  EXPECT_EQ(h2.ctx.extension<Counter>().value, 0);
}

// Types no other test touches, so their ids are assigned here, under the
// race below.
struct Shared {
  int value = 0;
};
template <int N>
struct Own {
  int value = 0;
};

TEST(Context, ConcurrentFirstUseOfFreshExtensionTypes) {
  std::atomic<int> arrived{0};
  std::size_t sharedId[2] = {};
  std::size_t ownId[2] = {};
  int seen[2] = {};
  const auto cell = [&](int i, auto own) {
    using OwnT = decltype(own);
    testutil::Scenario h;
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
    h.ctx.extension<Shared>().value = i + 1;
    h.ctx.extension<OwnT>().value = 10 * (i + 1);
    sharedId[i] = detail::extensionId<Shared>();
    ownId[i] = detail::extensionId<OwnT>();
    seen[i] = h.ctx.extension<Shared>().value + h.ctx.extension<OwnT>().value;
  };
  std::thread a{cell, 0, Own<0>{}};
  std::thread b{cell, 1, Own<1>{}};
  a.join();
  b.join();

  EXPECT_EQ(sharedId[0], sharedId[1]);
  EXPECT_NE(ownId[0], ownId[1]);
  EXPECT_NE(ownId[0], sharedId[0]);
  EXPECT_NE(ownId[1], sharedId[0]);
  EXPECT_EQ(seen[0], 11);
  EXPECT_EQ(seen[1], 22);
}

}  // namespace
}  // namespace scidmz::net
