// Hardware-simulation substrate tests: FIFOs, arbiter, memory timing.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "hwsim/arbiter.h"
#include "hwsim/counters.h"
#include "hwsim/fifo.h"
#include "hwsim/memory.h"

namespace sne::hwsim {
namespace {

TEST(FifoTest, BasicOrderAndCapacity) {
  Fifo<int> f(3);
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.try_push(1));
  EXPECT_TRUE(f.try_push(2));
  EXPECT_TRUE(f.try_push(3));
  EXPECT_TRUE(f.full());
  EXPECT_FALSE(f.try_push(4));  // backpressure, nothing dropped
  EXPECT_EQ(f.pop(), 1);
  EXPECT_EQ(f.pop(), 2);
  EXPECT_TRUE(f.try_push(4));
  EXPECT_EQ(f.pop(), 3);
  EXPECT_EQ(f.pop(), 4);
  EXPECT_TRUE(f.empty());
}

TEST(FifoTest, PopOnEmptyViolatesContract) {
  Fifo<int> f(2);
  EXPECT_THROW(f.pop(), ContractViolation);
}

TEST(FifoTest, HighWaterAndCounts) {
  Fifo<int> f(4);
  f.try_push(1);
  f.try_push(2);
  f.try_push(3);
  f.pop();
  f.try_push(4);
  EXPECT_EQ(f.high_water(), 3u);
  EXPECT_EQ(f.total_pushes(), 4u);
  EXPECT_EQ(f.total_pops(), 1u);
}

TEST(FifoTest, BulkAccessMatchesScalarOps) {
  // at()/pop_n/push_n are the drain replay's contiguous-span primitives;
  // their accounting must match the equivalent scalar op sequences.
  Fifo<int> f(4);
  f.try_push(1);
  f.try_push(2);
  f.try_push(3);
  f.pop();  // wrap the ring: head != 0
  f.try_push(4);
  f.try_push(5);
  EXPECT_EQ(f.at(0), 2);  // at(0) == front()
  EXPECT_EQ(f.at(1), 3);
  EXPECT_EQ(f.at(3), 5);
  f.pop_n(3);
  EXPECT_EQ(f.size(), 1u);
  EXPECT_EQ(f.front(), 5);
  EXPECT_EQ(f.total_pops(), 4u);  // 1 scalar + 3 bulk
  const int more[] = {6, 7, 8};
  f.push_n(more, 3);
  EXPECT_TRUE(f.full());
  EXPECT_EQ(f.total_pushes(), 8u);
  EXPECT_EQ(f.high_water(), 4u);
  for (int want : {5, 6, 7, 8}) EXPECT_EQ(f.pop(), want);
}

TEST(FifoTest, ReconcileBulkReplaysSpanStatistics) {
  Fifo<int> f(4);
  f.try_push(1);
  f.try_push(2);
  // A replayed span: 5 pushes, 4 pops, peak occupancy 4, survivors {9, 10}.
  const int survivors[] = {9, 10};
  f.reconcile_bulk(/*pushes=*/5, /*pops=*/4, /*peak=*/4, survivors, 2);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.at(0), 9);
  EXPECT_EQ(f.at(1), 10);
  EXPECT_EQ(f.total_pushes(), 7u);
  EXPECT_EQ(f.total_pops(), 4u);
  EXPECT_EQ(f.high_water(), 4u);
}

TEST(ArbiterTest, MaskedGrantMatchesPredicateGrant) {
  // grant_masked must issue the identical grant sequence to grant() fed the
  // same requesters, for every cursor position.
  RoundRobinArbiter a(5);
  RoundRobinArbiter b(5);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto mask =
        static_cast<std::uint64_t>(rng.uniform_int(0, 31));
    const int ga = a.grant([mask](std::size_t k) { return mask >> k & 1; });
    const int gb = b.grant_masked(mask);
    ASSERT_EQ(ga, gb) << "step " << i << " mask " << mask;
    ASSERT_EQ(a.cursor(), b.cursor());
  }
}

TEST(ArbiterTest, RoundRobinIsFair) {
  RoundRobinArbiter arb(4);
  std::vector<int> grants;
  for (int i = 0; i < 8; ++i)
    grants.push_back(arb.grant([](std::size_t) { return true; }));
  EXPECT_EQ(grants, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

TEST(ArbiterTest, SkipsNonRequesting) {
  RoundRobinArbiter arb(4);
  const auto only = [](std::size_t want) {
    return [want](std::size_t i) { return i == want; };
  };
  EXPECT_EQ(arb.grant(only(2)), 2);
  EXPECT_EQ(arb.grant(only(1)), 1);
  EXPECT_EQ(arb.grant([](std::size_t) { return false; }), -1);
}

TEST(ArbiterTest, NoStarvationUnderLoad) {
  RoundRobinArbiter arb(3);
  std::vector<int> count(3, 0);
  for (int i = 0; i < 300; ++i) {
    const int g = arb.grant([](std::size_t) { return true; });
    ASSERT_GE(g, 0);
    count[static_cast<std::size_t>(g)]++;
  }
  for (int c : count) EXPECT_EQ(c, 100);
}

TEST(MemoryTest, BurstTiming) {
  MemoryTiming t;
  t.latency_cycles = 6;
  MemoryModel mem(t);
  EXPECT_EQ(mem.next_word_delay(true), 6u);   // first word pays latency
  EXPECT_EQ(mem.next_word_delay(false), 1u);  // streaming afterwards
}

TEST(MemoryTest, ContentionStallsAreSeededDeterministic) {
  MemoryTiming t;
  t.latency_cycles = 2;
  t.stall_probability = 0.5;
  t.stall_cycles = 8;
  MemoryModel a(t, /*seed=*/42), b(t, /*seed=*/42);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(a.next_word_delay(false), b.next_word_delay(false));
}

TEST(CountersTest, Accumulate) {
  ActivityCounters a, b;
  a.cycles = 10;
  a.neuron_updates = 5;
  b.cycles = 3;
  b.neuron_updates = 7;
  b.xbar_beats = 2;
  a += b;
  EXPECT_EQ(a.cycles, 13u);
  EXPECT_EQ(a.neuron_updates, 12u);
  EXPECT_EQ(a.xbar_beats, 2u);
}

}  // namespace
}  // namespace sne::hwsim
