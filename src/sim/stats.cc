#include "sim/stats.hh"

#include <algorithm>
#include <bit>
#include <sstream>

namespace utm {

void
Histogram::observe(std::uint64_t value)
{
    const int bucket =
        value == 0 ? 0 : std::bit_width(value); // [2^(b-1), 2^b)
    buckets_[bucket < kBuckets ? bucket : kBuckets - 1]++;
    ++samples_;
    sum_ += value;
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
}

double
Histogram::mean() const
{
    return samples_ == 0 ? 0.0
                         : double(sum_) / double(samples_);
}

std::uint64_t
Histogram::quantile(double q) const
{
    if (samples_ == 0)
        return 0;
    const std::uint64_t target =
        std::uint64_t(q * double(samples_ - 1)) + 1;
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        seen += buckets_[b];
        if (seen >= target)
            return b == 0 ? 0 : (std::uint64_t(1) << b) - 1;
    }
    return max_;
}

std::uint64_t
Histogram::countAbove(std::uint64_t threshold) const
{
    // Exact only at bucket boundaries; callers use powers of two.
    std::uint64_t n = 0;
    for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t upper =
            b == 0 ? 0 : (std::uint64_t(1) << b) - 1;
        if (upper > threshold)
            n += buckets_[b];
    }
    return n;
}

void
TopKTable::observe(std::uint64_t key)
{
    ++observed_;
    for (Entry &e : slots_) {
        if (e.key == key) {
            ++e.count;
            return;
        }
    }
    if (static_cast<int>(slots_.size()) < k_) {
        slots_.push_back({key, 1});
        return;
    }
    // Misra–Gries miss on a full table: decrement every slot and drop
    // the ones that reach zero (the arriving key is not stored).
    for (Entry &e : slots_)
        --e.count;
    slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                                [](const Entry &e) {
                                    return e.count == 0;
                                }),
                 slots_.end());
}

std::vector<TopKTable::Entry>
TopKTable::top() const
{
    std::vector<Entry> out = slots_;
    std::sort(out.begin(), out.end(),
              [](const Entry &a, const Entry &b) {
                  return a.count != b.count ? a.count > b.count
                                            : a.key < b.key;
              });
    return out;
}

void
TopKTable::clear()
{
    slots_.clear();
    observed_ = 0;
}

void
StatsRegistry::inc(const std::string &name, std::uint64_t delta)
{
    counters_[name] += delta;
}

void
StatsRegistry::observe(const std::string &name, std::uint64_t value)
{
    histograms_[name].observe(value);
}

const Histogram &
StatsRegistry::histogram(const std::string &name) const
{
    static const Histogram empty;
    auto it = histograms_.find(name);
    return it == histograms_.end() ? empty : it->second;
}

void
StatsRegistry::set(const std::string &name, std::uint64_t value)
{
    counters_[name] = value;
}

std::uint64_t
StatsRegistry::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::vector<std::pair<std::string, std::uint64_t>>
StatsRegistry::withPrefix(const std::string &prefix) const
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (auto it = counters_.lower_bound(prefix);
         it != counters_.end() && it->first.compare(0, prefix.size(),
                                                    prefix) == 0;
         ++it) {
        out.emplace_back(it->first, it->second);
    }
    return out;
}

std::uint64_t
StatsRegistry::sumWithPrefix(const std::string &prefix) const
{
    std::uint64_t sum = 0;
    for (auto it = counters_.lower_bound(prefix);
         it != counters_.end() && it->first.compare(0, prefix.size(),
                                                    prefix) == 0;
         ++it) {
        sum += it->second;
    }
    return sum;
}

void
StatsRegistry::clear()
{
    for (auto &kv : counters_)
        kv.second = 0;
}

std::string
StatsRegistry::dump() const
{
    std::ostringstream os;
    for (const auto &kv : counters_)
        os << kv.first << ' ' << kv.second << '\n';
    return os.str();
}

} // namespace utm
