/**
 * @file
 * A small hierarchical statistics package.
 *
 * Stats are plain counters owned by simulation objects; a StatGroup
 * collects (name, description, accessor) triples so they can be
 * dumped uniformly and harvested by the experiment harness.
 */

#ifndef MIGC_SIM_STATS_HH
#define MIGC_SIM_STATS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace migc
{

/** A monotonically increasing scalar counter. */
class StatScalar
{
  public:
    StatScalar() = default;

    StatScalar &
    operator+=(double v)
    {
        value_ += v;
        return *this;
    }

    StatScalar &
    operator++()
    {
        value_ += 1.0;
        return *this;
    }

    void set(double v) { value_ = v; }

    double value() const { return value_; }

    void reset() { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/** Running average (sum / count). */
class StatAverage
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        count_ += 1.0;
    }

    double mean() const { return count_ > 0 ? sum_ / count_ : 0.0; }

    double count() const { return count_; }

    double sum() const { return sum_; }

    void
    reset()
    {
        sum_ = 0.0;
        count_ = 0.0;
    }

  private:
    double sum_ = 0.0;
    double count_ = 0.0;
};

/**
 * Registry of named statistics for one subsystem, arranged in a tree
 * by dotted path.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name = "") : name_(std::move(name)) {}

    /** Register a scalar stat under @p name. */
    void addScalar(const std::string &name, const std::string &desc,
                   const StatScalar *stat);

    /** Register a derived value computed at dump time. */
    void addFormula(const std::string &name, const std::string &desc,
                    std::function<double()> fn);

    /** Create (or get) a child group named @p name. */
    StatGroup &child(const std::string &name);

    const std::string &name() const { return name_; }

    /** Fetch one value by dotted path, e.g. "l2.bank0.hits". */
    double get(const std::string &dotted_path) const;

    /** True if @p dotted_path names a registered value. */
    bool has(const std::string &dotted_path) const;

    /** Sum a stat over all direct children, e.g. sumOverChildren("hits"). */
    double sumOverChildren(const std::string &leaf_path) const;

    /** Dump all stats (recursively) as "path value # desc" lines. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Flatten to (path, value) pairs for programmatic harvest. */
    void flatten(std::map<std::string, double> &out,
                 const std::string &prefix = "") const;

  private:
    struct Entry
    {
        std::string name;
        std::string desc;
        std::function<double()> value;
    };

    const Entry *findLocal(const std::string &name) const;

    std::string name_;
    std::vector<Entry> entries_;
    // map keeps deterministic iteration order for dumps
    std::map<std::string, StatGroup> children_;
};

} // namespace migc

#endif // MIGC_SIM_STATS_HH
