#include "measure.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

namespace relinkbench {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

const char *
kindName(Kind kind)
{
    switch (kind) {
    case Kind::Measured:
        return "measured";
    case Kind::Modelled:
        return "modelled";
    case Kind::Exact:
        return "exact";
    }
    return "?";
}

/** JSON string literal; names and notes are plain ASCII. */
std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

/** Linearly interpolated quantile @p q in [0, 1]; 0 for no samples. */
double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double pos = q * static_cast<double>(samples.size() - 1);
    auto lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

} // namespace

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(const std::vector<double> &samples)
{
    return quantile(samples, 0.5);
}

Tail
tailOf(const std::vector<double> &samples)
{
    Tail tail;
    for (int pct : {75, 90, 99}) {
        double value = quantile(samples, pct / 100.0);
        auto beyond = static_cast<size_t>(
            std::count_if(samples.begin(), samples.end(),
                          [&](double s) { return s > value; }));
        if (beyond >= 10)
            tail = {true, pct, value, beyond};
    }
    return tail;
}

double
slopePerSample(const std::vector<double> &ys)
{
    size_t n = ys.size();
    if (n < 2)
        return 0.0;
    double mean_x = static_cast<double>(n - 1) / 2.0;
    double mean_y = 0.0;
    for (double y : ys)
        mean_y += y;
    mean_y /= static_cast<double>(n);
    double num = 0.0;
    double den = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double dx = static_cast<double>(i) - mean_x;
        num += dx * (ys[i] - mean_y);
        den += dx * dx;
    }
    return num / den;
}

double
currentRssMiB()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0.0;
    unsigned long size = 0;
    unsigned long resident = 0;
    int fields = std::fscanf(f, "%lu %lu", &size, &resident);
    std::fclose(f);
    if (fields != 2)
        return 0.0;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / kMiB;
}

double
peakRssMiB()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / kMiB;
}

double
fileMiB(const std::string &path)
{
    struct stat st = {};
    if (stat(path.c_str(), &st) != 0)
        return 0.0;
    return static_cast<double>(st.st_size) / kMiB;
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(nowSec()) {}

Tracer::Scope::~Scope()
{
    if (id_ >= 0)
        tracer_->close(id_);
}

Tracer::Scope
Tracer::span(const std::string &name, int op)
{
    if (!enabled_)
        return Scope(this, -1);
    Span s;
    s.name = name;
    s.start = nowSec() - origin_;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op;
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return Scope(this, id);
}

void
Tracer::close(int id)
{
    spans_[static_cast<size_t>(id)].end = nowSec() - origin_;
    // Scopes nest, so the closing span is always the innermost one.
    open_.pop_back();
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.end - s.start);
    }
    return out;
}

double
Tracer::selfTime(size_t id) const
{
    // Children of one span are sequential (one recording thread), so
    // the time they cover is the sum of their durations.
    double self = spans_[id].end - spans_[id].start;
    for (const Span &s : spans_) {
        if (s.parent == static_cast<int>(id))
            self -= s.end - s.start;
    }
    return self;
}

void
Tracer::printSelfTimes() const
{
    struct Row
    {
        std::vector<double> durations;
        double self = 0.0;
    };
    std::map<std::string, Row> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
        Row &row = rows[spans_[i].name];
        row.durations.push_back(spans_[i].end - spans_[i].start);
        row.self += selfTime(i);
    }
    std::printf("# %-24s %6s %12s %12s\n", "span", "count", "median_s",
                "self_total_s");
    for (const auto &[name, row] : rows)
        std::printf("# %-24s %6zu %12.6f %12.6f\n", name.c_str(),
                    row.durations.size(), median(row.durations), row.self);
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"op\": %d, \"self_us\": %.3f}}\n",
                     i == 0 ? "" : ",", quoted(s.name).c_str(),
                     s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                     s.op, selfTime(i) * 1e6);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Report

void
Report::add(const std::string &name, double value, const std::string &unit,
            Kind kind, const std::string &note)
{
    metrics_.push_back({name, value, unit, kind, note});
}

void
Report::printTable() const
{
    for (const Metric &m : metrics_)
        std::printf("%-30s %16.6f %-6s [%s]%s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), kindName(m.kind),
                    m.note.empty() ? "" : "  ", m.note.c_str());
}

void
Report::printJson(bool correct, uint64_t attempted, uint64_t failed) const
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        // Non-finite values are not JSON numbers; they never arise from
        // the guarded ratios above, and null makes a reader reject them.
        char value[64];
        if (std::isfinite(m.value))
            std::snprintf(value, sizeof value, "%.17g", m.value);
        else
            std::snprintf(value, sizeof value, "null");
        std::printf("%s%s: {\"value\": %s, \"unit\": %s, \"kind\": \"%s\"}",
                    i == 0 ? "" : ", ", quoted(m.name).c_str(), value,
                    quoted(m.unit).c_str(), kindName(m.kind));
    }
    std::printf("}}\n");
}

} // namespace relinkbench
