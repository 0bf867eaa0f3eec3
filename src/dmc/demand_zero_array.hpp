#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace casurf {

namespace detail {
/// `bytes` (> 0) of anonymous private memory, zero-filled; throws
/// std::bad_alloc if the mapping fails.
[[nodiscard]] void* map_zero_pages(std::size_t bytes);
void unmap_zero_pages(void* data, std::size_t bytes) noexcept;
}  // namespace detail

/// A fixed-size array of a trivial type whose elements all start at zero,
/// on demand-zero pages: an anonymous mmap, which the kernel makes resident
/// a 4 KB page at a time, the first time something writes to the page
/// (reads of a page never written map the shared zero page and cost no
/// memory). A per-(type, site) table then costs memory only on the pages
/// where some entry is ever written, so the VSSM and FRM tables of a type
/// enabled at a few sites stay almost free. std::vector value-initialises,
/// which writes every element; calloc can serve a block from recycled heap
/// memory, which it must clear. On a host whose transparent huge pages
/// setting is `always` (not `madvise` or `never`), a touched 2 MB range may
/// be backed by one huge page, which shrinks the saving.
///
/// Move-only; a moved-from array is empty. A zero-length array maps
/// nothing.
template <class T>
class DemandZeroArray {
  static_assert(std::is_trivial_v<T>, "DemandZeroArray holds trivial types only");

 public:
  DemandZeroArray() = default;
  explicit DemandZeroArray(std::size_t n)
      : data_(n == 0 ? nullptr : static_cast<T*>(detail::map_zero_pages(bytes_for(n)))),
        size_(n) {}
  ~DemandZeroArray() { release(); }

  DemandZeroArray(DemandZeroArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  DemandZeroArray& operator=(DemandZeroArray&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  DemandZeroArray(const DemandZeroArray&) = delete;
  DemandZeroArray& operator=(const DemandZeroArray&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] T* begin() { return data_; }
  [[nodiscard]] T* end() { return data_ + size_; }
  [[nodiscard]] const T* begin() const { return data_; }
  [[nodiscard]] const T* end() const { return data_ + size_; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }

 private:
  static std::size_t bytes_for(std::size_t n) {
    if (n > SIZE_MAX / sizeof(T)) throw std::bad_alloc();
    return n * sizeof(T);
  }
  void release() noexcept {
    if (data_ != nullptr) detail::unmap_zero_pages(data_, size_ * sizeof(T));
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace casurf
