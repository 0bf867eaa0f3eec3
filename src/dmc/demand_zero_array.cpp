#include "dmc/demand_zero_array.hpp"

#include <sys/mman.h>

namespace casurf::detail {

void* map_zero_pages(std::size_t bytes) {
  void* const p =
      mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void unmap_zero_pages(void* data, std::size_t bytes) noexcept { munmap(data, bytes); }

}  // namespace casurf::detail
