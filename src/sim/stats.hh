/**
 * @file
 * Lightweight named-counter statistics registry.
 *
 * Components bump counters by name ("btm.aborts.set_overflow", ...); bench
 * harnesses read them back to print the paper's tables.  Counters are
 * created on first use.
 */

#ifndef UFOTM_SIM_STATS_HH
#define UFOTM_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace utm {

/** Power-of-two-bucketed histogram of 64-bit samples. */
class Histogram
{
  public:
    static constexpr int kBuckets = 33; ///< bucket i: [2^(i-1), 2^i).

    void observe(std::uint64_t value);

    std::uint64_t samples() const { return samples_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return samples_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

    /** Count in bucket @p i (i in [0, kBuckets)). */
    std::uint64_t
    bucketCount(int i) const
    {
        return buckets_[i];
    }

    /** Upper bound (inclusive) of bucket @p i's value range. */
    static std::uint64_t
    bucketUpperBound(int i)
    {
        return i == 0 ? 0 : (std::uint64_t(1) << i) - 1;
    }

    /** Lower bound (inclusive) of bucket @p i's value range. */
    static std::uint64_t
    bucketLowerBound(int i)
    {
        return i == 0 ? 0 : std::uint64_t(1) << (i - 1);
    }

    /** Bucketed quantile (upper bound of the bucket holding @p q). */
    std::uint64_t quantile(double q) const;

    /** Samples strictly greater than @p threshold. */
    std::uint64_t countAbove(std::uint64_t threshold) const;

  private:
    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t samples_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
};

/**
 * Deterministic bounded-memory top-K frequency sketch (Misra–Gries)
 * over opaque 64-bit keys.  Guarantee: any key responsible for more
 * than observed/(k+1) of the observations is present, and stored
 * counts are lower bounds on true frequencies.
 */
class TopKTable
{
  public:
    struct Entry
    {
        std::uint64_t key;
        std::uint64_t count;
    };

    explicit TopKTable(int k = 8) : k_(k) {}

    void observe(std::uint64_t key);

    /** Entries sorted count-descending, key-ascending on ties. */
    std::vector<Entry> top() const;

    std::uint64_t observed() const { return observed_; }
    bool empty() const { return slots_.empty(); }
    void clear();

  private:
    int k_;
    std::uint64_t observed_ = 0;
    std::vector<Entry> slots_;
};

/** A registry of named 64-bit counters. */
class StatsRegistry
{
  public:
    /** Add @p delta to counter @p name, creating it at zero if new. */
    void inc(const std::string &name, std::uint64_t delta = 1);

    /** Record a sample in the named histogram. */
    void observe(const std::string &name, std::uint64_t value);

    /** Read a histogram; an empty one if never observed. */
    const Histogram &histogram(const std::string &name) const;

    /** Set counter @p name to @p value. */
    void set(const std::string &name, std::uint64_t value);

    /** Read counter @p name; zero if it was never touched. */
    std::uint64_t get(const std::string &name) const;

    /** All counters whose names start with @p prefix, sorted by name. */
    std::vector<std::pair<std::string, std::uint64_t>>
    withPrefix(const std::string &prefix) const;

    /** Reset every counter to zero (names are retained). */
    void clear();

    /** Render all counters, one "name value" line each. */
    std::string dump() const;

    /** @name Whole-registry views (JSON export). @{ */
    const std::map<std::string, std::uint64_t> &
    counters() const
    {
        return counters_;
    }

    const std::map<std::string, Histogram> &
    histograms() const
    {
        return histograms_;
    }
    /** @} */

    /** Sum of every counter whose name starts with @p prefix. */
    std::uint64_t sumWithPrefix(const std::string &prefix) const;

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, Histogram> histograms_;
};

} // namespace utm

#endif // UFOTM_SIM_STATS_HH
