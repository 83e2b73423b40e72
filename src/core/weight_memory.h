// Per-slice filter buffer: "SNE can store up to 256 sets of weights ... and
// they can be independently selected on-the-fly by each Cluster, according
// to the addressing of the input event" (paper section III-C).
//
// Storage is `weight_sets` sets of `weights_per_set` 4-bit codes. Weights
// arrive over the event stream as WLOAD header + payload beats (8 weights
// per 32-bit beat, Fig. 1); reads are combinational (same-cycle) in the
// cluster datapath.
#pragma once

#include <cstdint>
#include <vector>

#include "common/contracts.h"
#include "common/fixed_point.h"
#include "event/event.h"

namespace sne::core {

class WeightMemory {
 public:
  WeightMemory(std::uint32_t sets, std::uint32_t weights_per_set)
      : sets_(sets),
        weights_per_set_(weights_per_set),
        store_(static_cast<std::size_t>(sets) * weights_per_set, 0) {
    SNE_EXPECTS(sets > 0 && weights_per_set > 0);
  }

  std::uint32_t sets() const { return sets_; }
  std::uint32_t weights_per_set() const { return weights_per_set_; }

  /// Combinational read of weight `idx` in `set` (4-bit signed code).
  std::int32_t read(std::uint32_t set, std::uint32_t idx) const {
    SNE_EXPECTS(set < sets_ && idx < weights_per_set_);
    return store_[static_cast<std::size_t>(set) * weights_per_set_ + idx];
  }

  /// Direct host-side write (used by tests; hardware path is write_beat).
  void write(std::uint32_t set, std::uint32_t idx, std::int32_t code) {
    SNE_EXPECTS(set < sets_ && idx < weights_per_set_);
    SNE_EXPECTS(fits(code, kWeightRange));
    store_[static_cast<std::size_t>(set) * weights_per_set_ + idx] =
        static_cast<std::int8_t>(code);
  }

  /// Consumes one weight payload beat carrying 8 packed 4-bit weights for
  /// group `group` (weights [8*group, 8*group+8)) of `set`. Weights past the
  /// end of the set are ignored (partial final group).
  void write_beat(std::uint32_t set, std::uint32_t group, event::Beat beat) {
    SNE_EXPECTS(set < sets_);
    for (int i = 0; i < 8; ++i) {
      const std::uint32_t idx = group * 8 + static_cast<std::uint32_t>(i);
      if (idx >= weights_per_set_) break;
      store_[static_cast<std::size_t>(set) * weights_per_set_ + idx] =
          event::unpack_weight(beat, i);
    }
  }

  void clear() { std::fill(store_.begin(), store_.end(), 0); }

 private:
  std::uint32_t sets_;
  std::uint32_t weights_per_set_;
  std::vector<std::int8_t> store_;
};

}  // namespace sne::core
