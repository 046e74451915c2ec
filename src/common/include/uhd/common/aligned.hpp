// Over-aligned heap storage for buffers the wide kernels stream through.
//
// glibc's malloc returns 16-byte aligned blocks, and large blocks come
// from mmap with the chunk header in front, so a multi-megabyte buffer
// starts 16 bytes past a cache line: every 64-byte vector load of it then
// straddles two lines. aligned_allocator hands std::vector storage from
// the aligned operator new instead.
#ifndef UHD_COMMON_ALIGNED_HPP
#define UHD_COMMON_ALIGNED_HPP

#include <cstddef>
#include <new>
#include <vector>

namespace uhd {

/// Cache-line size the aligned buffers are padded to.
inline constexpr std::size_t cache_line_bytes = 64;

/// std allocator whose storage starts on an `Align`-byte boundary.
template <typename T, std::size_t Align>
struct aligned_allocator {
    using value_type = T;

    template <typename U>
    struct rebind {
        using other = aligned_allocator<U, Align>;
    };

    aligned_allocator() noexcept = default;
    template <typename U>
    aligned_allocator(const aligned_allocator<U, Align>&) noexcept {}

    [[nodiscard]] T* allocate(std::size_t n) {
        return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Align}));
    }
    void deallocate(T* p, std::size_t) noexcept {
        ::operator delete(p, std::align_val_t{Align});
    }

    friend bool operator==(const aligned_allocator&, const aligned_allocator&) noexcept {
        return true;
    }
};

/// std::vector whose data() is cache-line aligned.
template <typename T>
using cache_aligned_vector = std::vector<T, aligned_allocator<T, cache_line_bytes>>;

} // namespace uhd

#endif // UHD_COMMON_ALIGNED_HPP
