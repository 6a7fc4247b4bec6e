// Byte-stream component-state serializer behind checkpoint/rollback
// (bounded-optimism speculation).
//
// One visitor method per component — `void state(util::StateIO& io)` —
// lists every member that defines the component's simulation trajectory;
// the same method both saves and restores, so the two directions cannot
// drift apart. Values are appended to / consumed from a flat byte buffer
// in declaration order with no framing: the buffer is a same-build,
// same-process artifact that never leaves memory, and the restorer's
// final done() check (every byte consumed) is the tripwire for a visitor
// that serialized more than it restored or vice versa.
#pragma once

#include <cstdint>
#include <cstring>
#include <list>
#include <map>
#include <set>
#include <type_traits>
#include <vector>

#include "util/check.hpp"

namespace tcppr::util {

class StateIO {
 public:
  // The same buffer serves one save and any number of restores (rollback
  // replays restore the identical bytes).
  StateIO(std::vector<unsigned char>& buf, bool saving)
      : buf_(buf), saving_(saving) {
    if (saving_) buf_.clear();
  }
  bool saving() const { return saving_; }
  std::size_t bytes() const { return saving_ ? buf_.size() : cursor_; }
  // Restore completeness check: every saved byte was consumed.
  bool done() const { return saving_ || cursor_ == buf_.size(); }

  void raw(void* p, std::size_t n) {
    if (saving_) {
      const auto* b = static_cast<const unsigned char*>(p);
      buf_.insert(buf_.end(), b, b + n);
    } else {
      TCPPR_CHECK(cursor_ + n <= buf_.size());
      std::memcpy(p, buf_.data() + cursor_, n);
      cursor_ += n;
    }
  }

  template <typename T>
  void pod(T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(T));
  }

  // Save: records the container size. Restore: returns the recorded size
  // (the passed value is ignored).
  std::uint64_t size_token(std::uint64_t n) {
    pod(n);
    return n;
  }

  // Object with its own state() visitor.
  template <typename T>
  void obj(T& v) {
    v.state(*this);
  }

  template <typename T>
  void pod_vector(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t n = size_token(v.size());
    if (saving_) {
      if (!v.empty()) raw(v.data(), v.size() * sizeof(T));
    } else {
      v.resize(n);
      if (n != 0) raw(v.data(), n * sizeof(T));
    }
  }

  // std::set / std::list / any container of trivially copyable values with
  // clear() + insert(end, value). Sets restore via the end hint, which is
  // O(1) for the sorted order they were saved in.
  template <typename C>
  void pod_sequence(C& c) {
    using T = typename C::value_type;
    static_assert(std::is_trivially_copyable_v<T>);
    std::uint64_t n = size_token(c.size());
    if (saving_) {
      for (const T& e : c) {
        T tmp = e;
        pod(tmp);
      }
    } else {
      c.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        T e{};
        pod(e);
        c.insert(c.end(), e);
      }
    }
  }

  // util::RingDeque (or any front-indexed container with size()/clear()/
  // push_back()) of objects with their own state() visitor.
  template <typename Ring>
  void obj_ring(Ring& r) {
    using T = std::remove_reference_t<decltype(r.front())>;
    std::uint64_t n = size_token(r.size());
    if (saving_) {
      for (std::size_t i = 0; i < r.size(); ++i) obj(r[i]);
    } else {
      r.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        T e{};
        obj(e);
        r.push_back(std::move(e));
      }
    }
  }

  // std::map / std::multimap with trivially copyable key and value.
  template <typename M>
  void pod_map(M& m) {
    using K = typename M::key_type;
    using V = typename M::mapped_type;
    static_assert(std::is_trivially_copyable_v<K> &&
                  std::is_trivially_copyable_v<V>);
    std::uint64_t n = size_token(m.size());
    if (saving_) {
      for (const auto& [k, v] : m) {
        K key = k;
        V value = v;
        pod(key);
        pod(value);
      }
    } else {
      m.clear();
      for (std::uint64_t i = 0; i < n; ++i) {
        K key{};
        V value{};
        pod(key);
        pod(value);
        m.emplace_hint(m.end(), key, value);
      }
    }
  }

 private:
  std::vector<unsigned char>& buf_;
  std::size_t cursor_ = 0;
  bool saving_;
};

}  // namespace tcppr::util
