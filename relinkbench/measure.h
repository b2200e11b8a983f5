#ifndef RELINKBENCH_MEASURE_H
#define RELINKBENCH_MEASURE_H

/**
 * @file
 * Measurement helpers of the relink benchmark: wall clock, sample
 * statistics, process memory, the span recorder used by the traced
 * run, and the metric report printed at the end of a run.
 *
 * Everything here is single-threaded: spans are opened and closed by the
 * benchmark's main thread around its calls into the library, never from
 * inside the library's worker threads.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace relinkbench {

/** Monotonic wall clock, seconds. */
double nowSec();

/** Linearly interpolated median; 0 for no samples. */
double median(const std::vector<double> &samples);

/**
 * The tail of a timing distribution: the highest of p75, p90 and p99
 * that has at least ten samples strictly above it.
 */
struct Tail
{
    bool found = false;
    int percentile = 0;  ///< 75, 90 or 99.
    double value = 0.0;
    size_t beyond = 0;   ///< Samples strictly above the value.
};

Tail tailOf(const std::vector<double> &samples);

/** Least-squares slope of @p ys over their index; 0 for < 2 samples. */
double slopePerSample(const std::vector<double> &ys);

/** Resident set size now, MiB (/proc/self/statm). */
double currentRssMiB();

/** Peak resident set size of the process so far, MiB (getrusage). */
double peakRssMiB();

/** Size of a file in MiB; 0 when it does not exist. */
double fileMiB(const std::string &path);

/**
 * In-memory span recorder.  A span has a name, start and end (seconds
 * since the recorder was made), the id of the span open around it, and
 * the id of the operation it belongs to (-1 for set-up and probes).
 * A disabled recorder records nothing, so untraced runs pay one branch
 * per call site.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        int op = -1;
    };

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, int id) : tracer_(tracer), id_(id) {}
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        int id_;
    };

    explicit Tracer(bool enabled);

    /** Open a span nested in the innermost open one. */
    [[nodiscard]] Scope span(const std::string &name, int op = -1);

    /** Durations of every closed span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /** Print per-name count, median duration and total self time. */
    void printSelfTimes() const;

    /** Write every span as a Chrome trace ("X" events) to @p path. */
    bool write(const std::string &path) const;

  private:
    void close(int id);

    /** Duration of span @p id minus the time its child spans cover. */
    double selfTime(size_t id) const;

    bool enabled_;
    double origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * Whether a number is a wall-clock measurement, an output of the
 * build system's cost model, or an exact deterministic count.
 */
enum class Kind { Measured, Modelled, Exact };

/** The metrics of one run, printed for people and as one JSON line. */
class Report
{
  public:
    void add(const std::string &name, double value, const std::string &unit,
             Kind kind, const std::string &note = "");

    /** One line per metric: name, value, unit, kind and note. */
    void printTable() const;

    /**
     * The result line: {"correct", "attempted", "failed", "metrics"},
     * each metric carrying its value, unit and kind.
     */
    void printJson(bool correct, uint64_t attempted, uint64_t failed) const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
        Kind kind;
        std::string note;
    };
    std::vector<Metric> metrics_;
};

} // namespace relinkbench

#endif // RELINKBENCH_MEASURE_H
