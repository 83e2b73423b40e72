// Streamers: "DMAs autonomously transfer events and weights from the main
// memory to the SNE internal buffers and vice versa. ... they also operate
// the conversion between the event memory format and event stream format.
// The DMA contains a 16-words FIFO event memory to absorb memory latency
// cycles" (paper section III-D.2).
//
// Both directions implement a simple 1-D movement scheme over 32-bit words.
// hwsim::MemoryModel supplies the read timing; each streamer holds the words
// of its own memory region.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "core/config.h"
#include "event/event.h"
#include "hwsim/counters.h"
#include "hwsim/fifo.h"
#include "hwsim/memory.h"

namespace sne::core {

/// Memory -> stream direction. The streamer holds the input region: start()
/// copies the run's program into a buffer it keeps across runs, so nothing it
/// reads points into the caller's program.
class InputStreamer {
 public:
  InputStreamer(hwsim::MemoryModel& mem, std::uint32_t fifo_depth)
      : mem_(&mem), fifo_(fifo_depth) {}

  /// Programs a 1-D transfer of `program`, first word first.
  void start(const std::vector<event::Beat>& program) {
    words_.assign(program.begin(), program.end());
    cursor_ = 0;
    wait_ = words_.empty() ? 0 : mem_->next_word_delay(/*first_of_burst=*/true);
  }

  /// Restores the freshly-constructed state (engine reset path), including
  /// the FIFO occupancy statistics. A drained streamer's transfer state is
  /// already equivalent; this also covers aborted transfers.
  void reset() {
    fifo_.reset();
    words_.clear();
    cursor_ = 0;
    wait_ = 0;
  }

  bool transfer_done() const { return cursor_ == words_.size(); }
  bool fully_drained() const { return transfer_done() && fifo_.empty(); }
  hwsim::Fifo<event::Beat>& fifo() { return fifo_; }
  const hwsim::Fifo<event::Beat>& fifo() const { return fifo_; }

  /// One clock cycle: fetches at most one word from memory into the FIFO,
  /// honouring access latency and backpressure.
  void tick(hwsim::ActivityCounters& c) {
    if (transfer_done()) return;
    if (wait_ > 1) {
      --wait_;
      return;
    }
    if (fifo_.full()) return;  // backpressure: hold the burst
    const bool ok = fifo_.try_push(words_[cursor_]);
    SNE_ASSERT(ok);
    c.fifo_pushes++;
    c.dma_read_beats++;
    ++cursor_;
    wait_ = transfer_done() ? 0 : mem_->next_word_delay(/*first_of_burst=*/false);
  }

  /// Cycles until this streamer's next self-timed observable action (a word
  /// entering the FIFO): the remaining latency countdown, or kNeverActive
  /// when the transfer is done / blocked on FIFO backpressure (the unblocking
  /// pop is another component's activity and bounds the jump instead).
  std::uint64_t next_activity_delta() const {
    if (transfer_done()) return kNeverActive;
    if (wait_ > 1) return wait_;
    return fifo_.full() ? kNeverActive : 1;
  }

  /// Fast-forward support: burns `cycles` latency-countdown ticks in bulk.
  /// Callers guarantee cycles < next_activity_delta(), so no transfer is
  /// skipped over; a blocked or drained streamer is unaffected (its tick is
  /// a no-op in those states).
  void skip_cycles(std::uint64_t cycles) {
    if (transfer_done() || wait_ <= 1) return;
    SNE_ASSERT(cycles <= wait_ - 1);
    wait_ -= static_cast<std::uint32_t>(cycles);
  }

 private:
  hwsim::MemoryModel* mem_;
  hwsim::Fifo<event::Beat> fifo_;
  std::vector<event::Beat> words_;  ///< the input region: this run's program
  std::size_t cursor_ = 0;
  std::uint32_t wait_ = 0;
};

/// Stream -> memory direction. The streamer holds its output region: a
/// buffer it keeps across runs, which start() empties.
class OutputStreamer {
 public:
  explicit OutputStreamer(std::uint32_t fifo_depth) : fifo_(fifo_depth) {}

  /// Programs the linear destination region of `capacity` words.
  void start(std::size_t capacity) {
    capacity_ = capacity;
    region_.clear();
  }

  hwsim::Fifo<event::Beat>& fifo() { return fifo_; }
  const hwsim::Fifo<event::Beat>& fifo() const { return fifo_; }
  /// The words written since start(), in write order.
  const std::vector<event::Beat>& region() const { return region_; }

  /// Restores the freshly-constructed state (engine reset path), including
  /// the FIFO occupancy statistics.
  void reset() {
    fifo_.reset();
    capacity_ = 0;
    region_.clear();
  }

  /// One clock cycle: writes at most one word to memory (posted writes; the
  /// write latency is hidden behind the FIFO, as in the RTL).
  void tick(hwsim::ActivityCounters& c) {
    if (fifo_.empty()) return;
    if (region_.size() >= capacity_)
      throw ConfigError("output stream overflowed its memory region");
    region_.push_back(fifo_.pop());
    c.fifo_pops++;
    c.dma_write_beats++;
  }

  /// Batched drain replay: commits `n` words the replay already popped from
  /// the FIFO model. Region contents and the dma beat charges are identical
  /// to n tick()s that popped these words; the FIFO-side pop statistics are
  /// reconciled separately by the replay, which also proved the words fit
  /// the region.
  void write_burst(const event::Beat* beats, std::size_t n,
                   hwsim::ActivityCounters& c) {
    SNE_EXPECTS(region_.size() + n <= capacity_);
    region_.insert(region_.end(), beats, beats + n);
    c.dma_write_beats += n;
  }

  /// Words left in the output region (bounds a replayed span's writes).
  std::size_t region_space() const { return capacity_ - region_.size(); }

 private:
  hwsim::Fifo<event::Beat> fifo_;
  std::size_t capacity_ = 0;
  std::vector<event::Beat> region_;
};

}  // namespace sne::core
