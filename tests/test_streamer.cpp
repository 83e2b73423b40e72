// Streamer (DMA) tests: 1-D transfers, latency absorption by the 16-word
// FIFO, backpressure, contention robustness (paper section III-D.2).
#include <gtest/gtest.h>

#include "core/streamer.h"
#include "hwsim/counters.h"
#include "hwsim/memory.h"

namespace sne::core {
namespace {

TEST(InputStreamerTest, TransfersAllWordsInOrder) {
  hwsim::MemoryModel mem;
  InputStreamer dma(mem, 16);
  dma.start({1, 2, 3, 4, 5});
  hwsim::ActivityCounters c;
  std::vector<std::uint32_t> got;
  for (int cycle = 0; cycle < 100 && got.size() < 5; ++cycle) {
    dma.tick(c);
    while (!dma.fifo().empty()) got.push_back(dma.fifo().pop());
  }
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(dma.fully_drained());
  EXPECT_EQ(c.dma_read_beats, 5u);
}

TEST(InputStreamerTest, FirstWordPaysLatencyThenStreams) {
  hwsim::MemoryTiming t;
  t.latency_cycles = 6;
  hwsim::MemoryModel mem(t);
  InputStreamer dma(mem, 16);
  dma.start({7, 8, 9});
  hwsim::ActivityCounters c;
  int first_arrival = -1, last_arrival = -1;
  for (int cycle = 0; cycle < 50; ++cycle) {
    dma.tick(c);
    if (first_arrival < 0 && !dma.fifo().empty()) first_arrival = cycle;
    if (dma.transfer_done() && last_arrival < 0) last_arrival = cycle;
  }
  EXPECT_GE(first_arrival, 5);                   // initial latency
  EXPECT_LE(last_arrival - first_arrival, 4);    // then ~1 word/cycle
}

TEST(InputStreamerTest, BackpressureHoldsBurst) {
  hwsim::MemoryModel mem;
  InputStreamer dma(mem, /*fifo_depth=*/2);
  dma.start({1, 2, 3, 4, 5, 6});
  hwsim::ActivityCounters c;
  for (int cycle = 0; cycle < 20; ++cycle) dma.tick(c);
  // FIFO holds 2, transfer stalls without dropping anything.
  EXPECT_EQ(dma.fifo().size(), 2u);
  EXPECT_FALSE(dma.transfer_done());
  std::vector<std::uint32_t> got;
  for (int cycle = 0; cycle < 50 && got.size() < 6; ++cycle) {
    dma.tick(c);
    if (!dma.fifo().empty()) got.push_back(dma.fifo().pop());
  }
  EXPECT_EQ(got, (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6}));
}

TEST(InputStreamerTest, SurvivesMemoryContention) {
  hwsim::MemoryTiming t;
  t.latency_cycles = 4;
  t.stall_probability = 0.3;
  t.stall_cycles = 7;
  hwsim::MemoryModel mem(t, /*seed=*/99);
  std::vector<std::uint32_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint32_t>(i);
  InputStreamer dma(mem, 16);
  dma.start(data);
  hwsim::ActivityCounters c;
  std::vector<std::uint32_t> got;
  for (int cycle = 0; cycle < 5000 && got.size() < data.size(); ++cycle) {
    dma.tick(c);
    while (!dma.fifo().empty()) got.push_back(dma.fifo().pop());
  }
  EXPECT_EQ(got, data);  // contention delays but never corrupts
}

TEST(OutputStreamerTest, WritesLinearly) {
  OutputStreamer dma(16);
  dma.start(50);
  hwsim::ActivityCounters c;
  for (std::uint32_t v : {11u, 22u, 33u}) dma.fifo().try_push(v);
  for (int cycle = 0; cycle < 10; ++cycle) dma.tick(c);
  EXPECT_EQ(dma.region(), (std::vector<std::uint32_t>{11, 22, 33}));
  EXPECT_EQ(c.dma_write_beats, 3u);
}

TEST(OutputStreamerTest, OverflowingRegionThrows) {
  OutputStreamer dma(16);
  dma.start(2);
  hwsim::ActivityCounters c;
  dma.fifo().try_push(1);
  dma.fifo().try_push(2);
  dma.fifo().try_push(3);
  dma.tick(c);
  dma.tick(c);
  EXPECT_THROW(dma.tick(c), ConfigError);
}

}  // namespace
}  // namespace sne::core
