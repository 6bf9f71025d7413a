#ifndef CARAM_MEM_PREFETCH_H_
#define CARAM_MEM_PREFETCH_H_

/**
 * @file
 * Software prefetch helpers for the row pipelines.
 *
 * A worker's popped batch of requests (CaRamSlice::prefetchHome, a few
 * jobs ahead) and a bulk-ingest chunk (CaRamSlice::insertBatch) both
 * know the rows they will touch before they touch them; requesting
 * those rows ahead turns a chain of dependent DRAM misses into
 * overlapped ones (memory-level parallelism), the host rendition of
 * the paper's overlapping bank fetches.  Hints only: correctness never
 * depends on them, and on toolchains without __builtin_prefetch they
 * compile to nothing.
 */

#include <cstdint>

namespace caram::mem {

/** One cache line of the address, read-intent, full temporal locality. */
inline void
prefetchRead(const void *addr)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
    (void)addr;
#endif
}

/**
 * Prefetch the first @p bytes of a row's packed words, one request per
 * 64-byte line.  Callers cap @p bytes (a whole very wide row is rarely
 * worth the request-buffer pressure; the slot windows a lookup touches
 * first live at the front of the row).
 */
inline void
prefetchSpan(const uint64_t *words, uint64_t bytes)
{
    const char *p = reinterpret_cast<const char *>(words);
    for (uint64_t off = 0; off < bytes; off += 64)
        prefetchRead(p + off);
}

} // namespace caram::mem

#endif // CARAM_MEM_PREFETCH_H_
