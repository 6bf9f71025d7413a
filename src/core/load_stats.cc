#include "core/load_stats.h"

namespace caram::core {

double
LoadStats::loadFactor() const
{
    const double cap =
        static_cast<double>(buckets) * static_cast<double>(slotsPerBucket);
    return cap == 0.0 ? 0.0 : static_cast<double>(records) / cap;
}

double
LoadStats::overflowingBucketFraction() const
{
    return buckets == 0
        ? 0.0
        : static_cast<double>(overflowingBuckets) /
              static_cast<double>(buckets);
}

double
LoadStats::spilledRecordFraction() const
{
    return records == 0
        ? 0.0
        : static_cast<double>(spilledRecords) /
              static_cast<double>(records);
}

double
amalUniform(const Histogram &distance, uint64_t records)
{
    if (records == 0)
        return 0.0;
    double total = 0.0;
    const auto &bins = distance.bins();
    for (std::size_t d = 0; d < bins.size(); ++d)
        total += static_cast<double>(bins[d]) * static_cast<double>(d + 1);
    return total / static_cast<double>(records);
}

} // namespace caram::core
