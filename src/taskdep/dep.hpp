// taskdep/dep.hpp — the dependency-clause vocabulary, and nothing else.
//
// This is the only taskdep header the public omp facade needs: TaskFlags
// carries a list of Dep clauses. Keeping these PODs free of engine internals (hash table, spinlocks, atomics)
// means omp.hpp consumers never couple to the engine; the engine itself
// lives in taskdep.hpp.
#pragma once

#include <cstdint>
#include <cstddef>
#include <initializer_list>

namespace glto::taskdep {

enum class DepKind : std::uint8_t {
  in,     ///< read  — concurrent with other `in`s on the same range
  out,    ///< write — ordered after every earlier access
  inout,  ///< read-write — same ordering as out
};

/// One `depend` clause: an address range and an access kind. size 0 is
/// treated as 1 byte (the "list item as handle" idiom: depend(inout: A)
/// passes &A with its natural size, tile codes pass the tile base).
struct Dep {
  const void* addr = nullptr;
  std::size_t size = 0;
  DepKind kind = DepKind::inout;
};

/// Small-vector of Dep clauses with inline storage for the common case
/// (tile kernels carry at most three clauses), part of the
/// zero-allocation task ABI: TaskFlags::depend used to be a std::vector,
/// charging every depend task a heap allocation before it reached the
/// engine. Spills to the heap only beyond kInlineDeps.
class DepList {
 public:
  static constexpr std::size_t kInlineDeps = 4;

  DepList() = default;
  DepList(std::initializer_list<Dep> deps) { assign(deps.begin(), deps.size()); }
  DepList(const DepList& o) { assign(o.data(), o.size_); }
  DepList(DepList&& o) noexcept { steal(o); }

  DepList& operator=(const DepList& o) {
    if (this != &o) {
      size_ = 0;
      assign(o.data(), o.size_);
    }
    return *this;
  }
  DepList& operator=(DepList&& o) noexcept {
    if (this != &o) {
      delete[] heap_;
      heap_ = nullptr;
      steal(o);
    }
    return *this;
  }
  DepList& operator=(std::initializer_list<Dep> deps) {
    size_ = 0;
    assign(deps.begin(), deps.size());
    return *this;
  }

  ~DepList() { delete[] heap_; }

  void push_back(const Dep& d) {
    if (size_ == cap_) grow(size_ + 1);
    data()[size_++] = d;
  }

  void reserve(std::size_t n) {
    if (n > cap_) grow(n);
  }

  void clear() { size_ = 0; }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] Dep* data() { return heap_ != nullptr ? heap_ : inline_; }
  [[nodiscard]] const Dep* data() const {
    return heap_ != nullptr ? heap_ : inline_;
  }
  [[nodiscard]] const Dep* begin() const { return data(); }
  [[nodiscard]] const Dep* end() const { return data() + size_; }

 private:
  void assign(const Dep* src, std::size_t n) {
    reserve(n);
    Dep* dst = data();
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
    size_ = n;
  }

  void steal(DepList& o) noexcept {
    heap_ = o.heap_;
    size_ = o.size_;
    cap_ = o.cap_;
    if (heap_ == nullptr) {
      for (std::size_t i = 0; i < size_; ++i) inline_[i] = o.inline_[i];
    }
    o.heap_ = nullptr;
    o.size_ = 0;
    o.cap_ = kInlineDeps;
  }

  void grow(std::size_t need) {
    std::size_t cap = cap_ * 2;
    if (cap < need) cap = need;
    Dep* fresh = new Dep[cap];
    const Dep* src = data();
    for (std::size_t i = 0; i < size_; ++i) fresh[i] = src[i];
    delete[] heap_;
    heap_ = fresh;
    cap_ = cap;
  }

  Dep inline_[kInlineDeps];
  Dep* heap_ = nullptr;
  std::size_t size_ = 0;
  std::size_t cap_ = kInlineDeps;
};

}  // namespace glto::taskdep
