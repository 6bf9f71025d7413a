#include "util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>

namespace perfbench {

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= v.size())
        return v.back();
    return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

void
WindowMedians::add(double us)
{
    window_.push_back(us);
    if (window_.size() < kSamples)
        return;
    const auto mid = window_.begin() + kSamples / 2;
    std::nth_element(window_.begin(), mid, window_.end());
    medians_.push_back(*mid);
    window_.clear();
}

namespace {

constexpr double kLinearUs = 100.0;   // linear bins below this
constexpr double kLinearBinUs = 0.01; // 10 ns
constexpr std::size_t kLinearBins = 10000;
constexpr double kLogGrowth = 1.01;
constexpr std::size_t kLogBins = 1400; // up to 100 us * 1.01^1400 > 100 s

double
binLow(std::size_t b)
{
    return b < kLinearBins
        ? static_cast<double>(b) * kLinearBinUs
        : kLinearUs * std::pow(kLogGrowth, static_cast<double>(b - kLinearBins));
}

} // namespace

LatencyHist::LatencyHist() : bins_(kLinearBins + kLogBins, 0) {}

void
LatencyHist::add(double us)
{
    us = std::max(us, 0.0);
    std::size_t b = 0;
    if (us < kLinearUs) {
        b = std::min(kLinearBins - 1,
                     static_cast<std::size_t>(us / kLinearBinUs));
    } else {
        b = kLinearBins + static_cast<std::size_t>(std::log(us / kLinearUs) /
                                                    std::log(kLogGrowth));
        b = std::min(b, bins_.size() - 1);
    }
    ++bins_[b];
    ++n_;
    max_ = std::max(max_, us);
}

void
LatencyHist::merge(const LatencyHist &other)
{
    for (std::size_t b = 0; b < bins_.size(); ++b)
        bins_[b] += other.bins_[b];
    n_ += other.n_;
    max_ = std::max(max_, other.max_);
}

double
LatencyHist::quantile(double q) const
{
    if (n_ == 0)
        return 0.0;
    const double rank = q * static_cast<double>(n_ - 1);
    uint64_t below = 0;
    for (std::size_t b = 0; b < bins_.size(); ++b) {
        if (bins_[b] == 0)
            continue;
        if (static_cast<double>(below + bins_[b]) > rank) {
            // Spread the bin's samples evenly across its width.
            const double frac = (rank - static_cast<double>(below) + 0.5) /
                                static_cast<double>(bins_[b]);
            return binLow(b) + frac * (binLow(b + 1) - binLow(b));
        }
        below += bins_[b];
    }
    return max_;
}

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    entries_.push_back({name, value, unit});
}

std::string
Metrics::json() const
{
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry &e = entries_[i];
        char num[64];
        // Full precision: the value is reported as measured.
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(e.value) ? e.value : 0.0);
        os << (i ? ", " : "") << '"' << e.name << "\": {\"value\": " << num
           << ", \"unit\": \"" << e.unit << "\"}";
    }
    os << '}';
    return os.str();
}

SpanRecorder::SpanRecorder(std::size_t capacity)
{
    spans_.reserve(capacity);
}

uint32_t
SpanRecorder::nameId(const std::string &name)
{
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return static_cast<uint32_t>(i);
    }
    names_.push_back(name);
    return static_cast<uint32_t>(names_.size() - 1);
}

double
SpanRecorder::totalNs(uint32_t name) const
{
    double sum = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            sum += static_cast<double>(s.end - s.start);
    }
    return sum;
}

uint64_t
SpanRecorder::count(uint32_t name) const
{
    uint64_t n = 0;
    for (const Span &s : spans_)
        n += s.name == name;
    return n;
}

double
SpanRecorder::emptySpanNs()
{
    constexpr int kTrials = 5;
    constexpr int kSpans = 20000;
    std::vector<double> per;
    for (int t = 0; t < kTrials; ++t) {
        SpanRecorder r(kSpans);
        const int64_t t0 = nowNs();
        for (int i = 0; i < kSpans; ++i)
            r.close(r.open(0, static_cast<uint64_t>(i)));
        per.push_back(static_cast<double>(nowNs() - t0) / kSpans);
    }
    return median(per);
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "id,name,parent,request,start_ns,end_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << i + 1 << ',' << names_[s.name] << ',' << s.parent << ','
            << s.request << ',' << s.start << ',' << s.end << '\n';
    }
    return static_cast<bool>(out);
}

double
hostRefLoopNs()
{
    // A dependent multiply-xorshift chain: no memory traffic, no
    // vectorization, so its speed tracks only the core's clock and
    // whatever else shares it.
    constexpr uint64_t kIters = 20'000'000;
    uint64_t x = 0x9e3779b97f4a7c15ull;
    const int64_t t0 = nowNs();
    for (uint64_t i = 0; i < kIters; ++i) {
        x ^= x >> 29;
        x *= 0xbf58476d1ce4e5b9ull;
    }
    const int64_t t1 = nowNs();
    // Keep the chain observable so it is not folded away.
    volatile uint64_t sink = x;
    (void)sink;
    return static_cast<double>(t1 - t0) / static_cast<double>(kIters);
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace perfbench
