// Fixed-capacity small vector for trivially copyable element types.
//
// Packet headers carry short lists with a hard cap (RFC 2018 allows at
// most 3 SACK blocks per ACK). InlineVec keeps up to N elements in the
// object itself and never touches the heap, so it is trivially copyable
// whenever T is: a header holding one copies with a memcpy. Pushing past
// N is a bug (CHECK).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "util/check.hpp"

namespace tcppr::util {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVec is restricted to trivially copyable types");
  static_assert(N > 0 && N <= UINT8_MAX);

 public:
  using value_type = T;
  using const_iterator = const T*;

  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const T& operator[](std::size_t i) const {
    TCPPR_DCHECK(i < size_);
    return data_[i];
  }

  void push_back(const T& value) {
    TCPPR_CHECK(size_ < N);
    data_[size_++] = value;
  }

 private:
  T data_[N]{};
  std::uint8_t size_ = 0;
};

}  // namespace tcppr::util
