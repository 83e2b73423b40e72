// Minimal dense N-D tensor used by the golden eCNN executor and the trainer.
//
// Row-major, heap-backed, value semantics (rule of zero). This is a substrate
// utility, not a performance showcase: the cycle-accurate simulator never
// touches it, only the software reference paths do.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

#include "common/contracts.h"

namespace sne {

/// Dense row-major tensor of up to 4 dimensions.
template <typename T>
class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::vector<std::size_t> shape, T fill = T{})
      : shape_(std::move(shape)),
        data_(count_of(shape_), fill) {
    SNE_EXPECTS(!shape_.empty() && shape_.size() <= 4);
  }

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t size() const { return data_.size(); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  T& operator[](std::size_t flat) {
    SNE_EXPECTS(flat < data_.size());
    return data_[flat];
  }
  const T& operator[](std::size_t flat) const {
    SNE_EXPECTS(flat < data_.size());
    return data_[flat];
  }

  T& at(std::size_t i0) { return data_[index(i0)]; }
  T& at(std::size_t i0, std::size_t i1) { return data_[index(i0, i1)]; }
  T& at(std::size_t i0, std::size_t i1, std::size_t i2) {
    return data_[index(i0, i1, i2)];
  }
  T& at(std::size_t i0, std::size_t i1, std::size_t i2, std::size_t i3) {
    return data_[index(i0, i1, i2, i3)];
  }
  const T& at(std::size_t i0) const { return data_[index(i0)]; }
  const T& at(std::size_t i0, std::size_t i1) const { return data_[index(i0, i1)]; }
  const T& at(std::size_t i0, std::size_t i1, std::size_t i2) const {
    return data_[index(i0, i1, i2)];
  }
  const T& at(std::size_t i0, std::size_t i1, std::size_t i2, std::size_t i3) const {
    return data_[index(i0, i1, i2, i3)];
  }

  void fill(T v) { std::fill(data_.begin(), data_.end(), v); }

  /// Flat index of a 1-D access; bounds-checked.
  std::size_t index(std::size_t i0) const {
    SNE_EXPECTS(rank() == 1 && i0 < shape_[0]);
    return i0;
  }
  std::size_t index(std::size_t i0, std::size_t i1) const {
    SNE_EXPECTS(rank() == 2 && i0 < shape_[0] && i1 < shape_[1]);
    return i0 * shape_[1] + i1;
  }
  std::size_t index(std::size_t i0, std::size_t i1, std::size_t i2) const {
    SNE_EXPECTS(rank() == 3 && i0 < shape_[0] && i1 < shape_[1] && i2 < shape_[2]);
    return (i0 * shape_[1] + i1) * shape_[2] + i2;
  }
  std::size_t index(std::size_t i0, std::size_t i1, std::size_t i2,
                    std::size_t i3) const {
    SNE_EXPECTS(rank() == 4 && i0 < shape_[0] && i1 < shape_[1] &&
                i2 < shape_[2] && i3 < shape_[3]);
    return ((i0 * shape_[1] + i1) * shape_[2] + i2) * shape_[3] + i3;
  }

  bool operator==(const Tensor& other) const {
    return shape_ == other.shape_ && data_ == other.data_;
  }

 private:
  static std::size_t count_of(const std::vector<std::size_t>& shape) {
    return std::accumulate(shape.begin(), shape.end(), std::size_t{1},
                           [](std::size_t a, std::size_t b) { return a * b; });
  }

  std::vector<std::size_t> shape_;
  std::vector<T> data_;
};

using TensorF = Tensor<float>;
using TensorI8 = Tensor<std::int8_t>;
using TensorU8 = Tensor<std::uint8_t>;

}  // namespace sne
