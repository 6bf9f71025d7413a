#ifndef CARAM_CORE_LOAD_STATS_H_
#define CARAM_CORE_LOAD_STATS_H_

/**
 * @file
 * Placement statistics of a CA-RAM database: the quantities the paper's
 * Tables 2 and 3 report -- load factor alpha, the fraction of
 * overflowing buckets, the fraction of spilled records, and AMAL (the
 * average number of memory accesses per lookup).
 */

#include <cstdint>

#include "common/stats.h"

namespace caram::core {

/**
 * AMAL under a uniform access pattern: each of @p records placed
 * records equally likely, lookup cost = probe distance + 1, from the
 * probe-distance histogram.  The one formula behind both
 * LoadStats::amalUniform() and CaRamSlice::amalUniform().
 */
double amalUniform(const Histogram &distance, uint64_t records);

/** Aggregated placement statistics for one slice/database. */
struct LoadStats
{
    uint64_t buckets = 0;        ///< M
    unsigned slotsPerBucket = 0; ///< S
    uint64_t records = 0;        ///< placed records (incl. duplicates)
    uint64_t spilledRecords = 0; ///< records placed outside their home
    uint64_t overflowingBuckets = 0; ///< buckets whose demand exceeds S

    /** Demand per home bucket (how many records hash there). */
    Histogram homeDemand;
    /** Probe distance of placed records (0 = home bucket). */
    Histogram distance;

    /** alpha = N / (M * S). */
    double loadFactor() const;

    /** Fraction of buckets that overflowed. */
    double overflowingBucketFraction() const;

    /** Fraction of records spilled to other buckets. */
    double spilledRecordFraction() const;

    /**
     * AMAL under a uniform access pattern: each placed record equally
     * likely, lookup cost = probe distance + 1.
     */
    double amalUniform() const { return core::amalUniform(distance, records); }
};

} // namespace caram::core

#endif // CARAM_CORE_LOAD_STATS_H_
