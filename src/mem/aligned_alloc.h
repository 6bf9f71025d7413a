#ifndef CARAM_MEM_ALIGNED_ALLOC_H_
#define CARAM_MEM_ALIGNED_ALLOC_H_

/**
 * @file
 * Minimal over-aligned allocator for containers whose buffers are read
 * with vector loads (the match kernels fetch 256/512-bit windows from
 * row storage).  Alignment is a template parameter so the container
 * type records the guarantee.
 *
 * The buffer is carved by hand from a plain allocation Align +
 * sizeof(void *) bytes larger, with the plain pointer stored just below
 * the aligned one.  glibc's aligned operator new trims its block to the
 * exact request, so a freed table leaves a block too small for the next
 * table of the same size (memalign asks for size + alignment + a
 * header): every rebuilt database then took fresh memory while the old
 * block stayed resident.  A plain block is reused as it is.
 */

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>

namespace caram::mem {

template <typename T, std::size_t Align>
struct AlignedAllocator
{
    static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                  "alignment must be a power of two covering alignof(T)");

    using value_type = T;

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n > (SIZE_MAX - Align - sizeof(void *)) / sizeof(T))
            throw std::bad_array_new_length();
        char *raw = static_cast<char *>(
            ::operator new(n * sizeof(T) + Align + sizeof(void *)));
        const auto base = reinterpret_cast<std::uintptr_t>(raw);
        const std::uintptr_t aligned =
            (base + sizeof(void *) + Align - 1) & ~std::uintptr_t{Align - 1};
        char *out = raw + (aligned - base);
        std::memcpy(out - sizeof(void *), &raw, sizeof(void *));
        return reinterpret_cast<T *>(out);
    }

    void
    deallocate(T *p, std::size_t)
    {
        char *raw = nullptr;
        std::memcpy(&raw, reinterpret_cast<char *>(p) - sizeof(void *),
                    sizeof(void *));
        ::operator delete(raw);
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    friend bool
    operator==(const AlignedAllocator &, const AlignedAllocator &)
    {
        return true;
    }
};

} // namespace caram::mem

#endif // CARAM_MEM_ALIGNED_ALLOC_H_
