#include "trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench
{

std::int64_t
SpanRecorder::open(const char *name, std::int64_t parent,
                   std::uint64_t request_id)
{
    const std::int64_t t = nowNs();
    return add(name, t, t, parent, request_id);
}

void
SpanRecorder::close(std::int64_t index, std::int64_t end_ns)
{
    spans_[static_cast<std::size_t>(index)].endNs = end_ns;
}

std::int64_t
SpanRecorder::add(const char *name, std::int64_t start_ns,
                  std::int64_t end_ns, std::int64_t parent,
                  std::uint64_t request_id)
{
    spans_.push_back(Span{name, start_ns, end_ns, parent, request_id});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
SpanRecorder::absorb(const SpanRecorder &other)
{
    const auto base = static_cast<std::int64_t>(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        spans_.push_back(s);
    }
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id,parent,request,name,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f, "%zu,%lld,%llu,%s,%lld,%lld\n", i,
                     static_cast<long long>(s.parent),
                     static_cast<unsigned long long>(s.requestId),
                     s.name, static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    }
    return std::fclose(f) == 0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::string
Result::toJson() const
{
    std::string out = "{\"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
        out += (i ? ", " : "") + jsonString(failures[i]);
    out += "], \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        out += (first ? "" : ", ") + jsonString(name) +
               ": {\"value\": " + jsonNumber(m.value) +
               ", \"unit\": " + jsonString(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) + "}";
        first = false;
    }
    return out + "}}\n";
}

bool
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << text;
    f.close();
    return static_cast<bool>(f);
}

double
peakRssMb()
{
    // The high-water mark of this process's own address space, not
    // getrusage's ru_maxrss: that one keeps, across exec, the peak of
    // the process this one was forked from (the Python runner).
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

} // namespace perfbench
