#include "sim/stats.hh"

#include "sim/logging.hh"

namespace migc
{

void
StatGroup::addScalar(const std::string &name, const std::string &desc,
                     const StatScalar *stat)
{
    entries_.push_back(
        Entry{name, desc, [stat]() { return stat->value(); }});
}

void
StatGroup::addFormula(const std::string &name, const std::string &desc,
                      std::function<double()> fn)
{
    entries_.push_back(Entry{name, desc, std::move(fn)});
}

StatGroup &
StatGroup::child(const std::string &name)
{
    auto it = children_.find(name);
    if (it == children_.end())
        it = children_.emplace(name, StatGroup(name)).first;
    return it->second;
}

const StatGroup::Entry *
StatGroup::findLocal(const std::string &name) const
{
    for (const auto &e : entries_) {
        if (e.name == name)
            return &e;
    }
    return nullptr;
}

double
StatGroup::get(const std::string &dotted_path) const
{
    auto dot = dotted_path.find('.');
    if (dot == std::string::npos) {
        const Entry *e = findLocal(dotted_path);
        panic_if(e == nullptr, "no stat named '%s' in group '%s'",
                 dotted_path.c_str(), name_.c_str());
        return e->value();
    }
    std::string head = dotted_path.substr(0, dot);
    auto it = children_.find(head);
    panic_if(it == children_.end(), "no stat group '%s' in '%s'",
             head.c_str(), name_.c_str());
    return it->second.get(dotted_path.substr(dot + 1));
}

bool
StatGroup::has(const std::string &dotted_path) const
{
    auto dot = dotted_path.find('.');
    if (dot == std::string::npos)
        return findLocal(dotted_path) != nullptr;
    auto it = children_.find(dotted_path.substr(0, dot));
    if (it == children_.end())
        return false;
    return it->second.has(dotted_path.substr(dot + 1));
}

double
StatGroup::sumOverChildren(const std::string &leaf_path) const
{
    double total = 0.0;
    for (const auto &[name, group] : children_) {
        if (group.has(leaf_path))
            total += group.get(leaf_path);
    }
    return total;
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    std::string base = prefix.empty() ? name_ : prefix;
    for (const auto &e : entries_) {
        std::string path = base.empty() ? e.name : base + "." + e.name;
        os << path << " " << e.value();
        if (!e.desc.empty())
            os << " # " << e.desc;
        os << "\n";
    }
    for (const auto &[name, group] : children_) {
        std::string child_prefix = base.empty() ? name : base + "." + name;
        group.dump(os, child_prefix);
    }
}

void
StatGroup::flatten(std::map<std::string, double> &out,
                   const std::string &prefix) const
{
    std::string base = prefix.empty() ? name_ : prefix;
    for (const auto &e : entries_) {
        std::string path = base.empty() ? e.name : base + "." + e.name;
        out[path] = e.value();
    }
    for (const auto &[name, group] : children_) {
        std::string child_prefix = base.empty() ? name : base + "." + name;
        group.flatten(out, child_prefix);
    }
}

} // namespace migc
