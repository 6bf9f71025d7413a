#ifndef CARAM_PERFBENCH_UTIL_H_
#define CARAM_PERFBENCH_UTIL_H_

/**
 * @file
 * Small helpers shared by the benchmark: a monotonic nanosecond clock,
 * order statistics, the metric sink that prints the result line, the
 * in-memory span recorder of the traced mode, the host-speed probe and
 * the peak-RSS reader.
 */

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Monotonic clock in nanoseconds. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The @p q quantile of @p v, interpolating between order statistics;
 *  0 when empty. */
double quantile(std::vector<double> v, double q);

/** Median of @p v; 0 when empty. */
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/**
 * Latency samples in microseconds, binned: 10 ns bins up to 100 us, then
 * bins 1% wide.  Quantiles interpolate inside a bin, so they track the
 * exact sample quantiles to well under 0.1% at the medians measured here,
 * in constant memory however many requests a run makes.
 */
class LatencyHist
{
  public:
    LatencyHist();
    void add(double us);
    /** Add every sample of @p other. */
    void merge(const LatencyHist &other);
    uint64_t count() const { return n_; }
    double quantile(double q) const;
    double max() const { return max_; }

  private:
    std::vector<uint64_t> bins_;
    uint64_t n_ = 0;
    double max_ = 0.0;
};

/** The median latency of each consecutive window of kSamples latencies
 *  (a last, partial window is dropped). */
class WindowMedians
{
  public:
    static constexpr std::size_t kSamples = 500;

    void add(double us);
    const std::vector<double> &medians() const { return medians_; }

  private:
    std::vector<double> window_;
    std::vector<double> medians_;
};

/** Named metrics with units, printed as the result object. */
class Metrics
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    /** `"name": {"value": v, "unit": "u"}, ...` in insertion order. */
    std::string json() const;

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** One benchmark-side span around a call into a layer's public API. */
struct Span
{
    int64_t start = 0;
    int64_t end = 0;
    uint32_t name = 0;    ///< index into SpanRecorder::names()
    uint32_t parent = 0;  ///< 1-based index of the parent span, 0 = root
    uint64_t request = 0; ///< stream position of the request
};

/**
 * Spans kept in memory and written out at exit.  Capacity is reserved up
 * front so recording never reallocates inside a timed region.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(std::size_t capacity);

    /** Intern @p name; returns its id. */
    uint32_t nameId(const std::string &name);

    /** Open a span now; returns its 1-based handle. */
    uint32_t
    open(uint32_t name, uint64_t request, uint32_t parent = 0)
    {
        Span s;
        s.name = name;
        s.parent = parent;
        s.request = request;
        spans_.push_back(s);
        spans_.back().start = nowNs();
        return static_cast<uint32_t>(spans_.size());
    }

    /** Close span @p handle now. */
    void close(uint32_t handle) { spans_[handle - 1].end = nowNs(); }

    /** Summed duration of every span named @p name, ns. */
    double totalNs(uint32_t name) const;
    /** Number of spans named @p name. */
    uint64_t count(uint32_t name) const;

    /** The cost of one empty open/close pair, ns (median of trials). */
    static double emptySpanNs();

    /** Write every span as CSV (id,name,parent,request,start,end). */
    bool write(const std::string &path) const;

    std::size_t size() const { return spans_.size(); }

  private:
    std::vector<Span> spans_;
    std::vector<std::string> names_;
};

/** Nanoseconds per iteration of a fixed dependent scalar loop: the
 *  host-speed probe timed before and after each workload. */
double hostRefLoopNs();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

} // namespace perfbench

#endif // CARAM_PERFBENCH_UTIL_H_
