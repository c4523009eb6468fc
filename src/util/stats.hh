/**
 * @file
 * A small statistics package in the spirit of gem5's: named scalar
 * counters, averages and histograms registered in hierarchical groups,
 * with a text dump at the end of simulation.
 */

#ifndef OBFUSMEM_UTIL_STATS_HH
#define OBFUSMEM_UTIL_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace obfusmem {
namespace statistics {

/** A named monotonically accumulating scalar statistic. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator++() { value_ += 1; return *this; }
    void operator++(int) { value_ += 1; }
    void set(double v) { value_ = v; }
    void reset() { value_ = 0; }

    double value() const { return value_; }

  private:
    double value_ = 0;
};

/** Running average statistic (sum / count). */
class Average
{
  public:
    void sample(double v) { sum += v; count += 1; }
    void reset() { sum = 0; count = 0; }

    double value() const { return count ? sum / count : 0.0; }
    double total() const { return sum; }
    uint64_t samples() const { return count; }

  private:
    double sum = 0;
    uint64_t count = 0;
};

/** Fixed-bucket histogram with overflow bucket. */
class Histogram
{
  public:
    /**
     * @param min Lower bound of the first bucket.
     * @param max Upper bound of the last regular bucket.
     * @param num_buckets Number of regular buckets.
     */
    Histogram(double min = 0, double max = 1, size_t num_buckets = 10);

    void sample(double v);
    void reset();

    uint64_t samples() const { return count; }
    uint64_t finiteSamples() const { return finite; }
    double mean() const { return finite ? sum / finite : 0.0; }
    double minSample() const { return minSeen; }
    double maxSample() const { return maxSeen; }
    const std::vector<uint64_t> &buckets() const { return counts; }
    uint64_t underflow() const { return under; }
    uint64_t overflow() const { return over; }
    double bucketLow(size_t i) const { return lo + i * width; }

  private:
    double lo, hi, width;
    std::vector<uint64_t> counts;
    uint64_t under = 0, over = 0;
    uint64_t count = 0;
    uint64_t finite = 0;
    double sum = 0;
    double minSeen = 0, maxSeen = 0;
};

/**
 * A hierarchical group of named statistics. Leaf stats register
 * themselves by pointer; the group formats a dump.
 */
class Group
{
  public:
    explicit Group(std::string name, Group *parent = nullptr);

    /** Register stats; the group does NOT own them. */
    void addScalar(const std::string &name, const Scalar *s,
                   const std::string &desc = "");
    void addAverage(const std::string &name, const Average *a,
                    const std::string &desc = "");
    void addHistogram(const std::string &name, const Histogram *h,
                      const std::string &desc = "");

    /** Dump this group and all children to the stream. */
    void dump(std::ostream &os) const;

    /** Fully qualified dotted name. */
    const std::string &fullName() const { return qualified; }

    /** Look up a registered scalar's value by dotted leaf name. */
    double scalarValue(const std::string &name) const;

  private:
    std::string qualified;
    Group *parent;
    std::vector<Group *> children;

    template <typename T>
    struct Entry { std::string name; const T *stat; std::string desc; };

    std::vector<Entry<Scalar>> scalars;
    std::vector<Entry<Average>> averages;
    std::vector<Entry<Histogram>> histograms;
};

} // namespace statistics
} // namespace obfusmem

#endif // OBFUSMEM_UTIL_STATS_HH
