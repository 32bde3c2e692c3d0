/**
 * @file
 * Shared pieces of the repository benchmark: the metric record, the
 * correctness tally, the span recorder of the traced run, and the
 * entry points of the three workloads.
 *
 * The benchmark measures every layer from outside: it times public
 * calls and reads counters the library already exposes. Nothing here
 * adds instrumentation to the library itself.
 */
#ifndef ASTITCH_PERFBENCH_BENCH_H
#define ASTITCH_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Metrics of one pass, in insertion order. */
class Metrics
{
  public:
    struct Entry
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    void set(const std::string &name, double value,
             const std::string &unit);
    double get(const std::string &name) const;
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/** Correctness tally: every checked operation is attempted once and
 * fails at most once. The first few failure messages are kept. */
class Outcome
{
  public:
    /** Count one attempted operation; record @p what when !ok. */
    bool check(bool ok, const std::string &what);

    std::int64_t attempted() const { return attempted_; }
    std::int64_t failed() const { return failed_; }
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    std::mutex mutex_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    std::vector<std::string> messages_;
};

/**
 * In-memory span recorder of the traced run. Spans carry a layer name
 * (a src/ module plus the call, e.g. "core.codegen"), start and end,
 * and the span that caused them. Spans may end on any thread; a
 * parent may have children on several threads.
 */
class Tracer
{
  public:
    struct Record
    {
        std::string layer;
        int parent = -1;
        double t0 = 0.0; ///< seconds since the tracer was created
        double t1 = 0.0;
    };

    Tracer();

    int begin(const std::string &layer, int parent);
    void end(int id);

    /** Self time per layer in ms: each span's duration minus the union
     * of its children's intervals, summed over the layer's spans. */
    std::map<std::string, double> selfMs() const;

    /** Longest single span of @p layer, ms. */
    double maxMs(const std::string &layer) const;

    /** Share of [0, now] during which at least one span was open. The
     * time of spans of @p off_path layers, which must not overlap the
     * other spans, is left out of both shares. */
    double coverage(const std::vector<std::string> &off_path) const;

  private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Record> spans_;
};

/**
 * RAII span. A null tracer makes it a no-op, so untraced and traced
 * passes share one code path. The parent defaults to the innermost
 * open span of the calling thread; worker threads pass it explicitly.
 */
class Span
{
  public:
    static constexpr int kCurrent = -2;

    Span(Tracer *tracer, const std::string &layer, int parent = kCurrent);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    int id() const { return id_; }

  private:
    Tracer *tracer_;
    int id_ = -1;
    int saved_current_ = -1;
};

/**
 * Calibration against the drifting speed of a shared machine. A
 * calibration point times three runs of calibrationSeconds() and
 * appends their median, with the time span it took, to the sink (no-op
 * without one). main() takes a point before the first pass and after
 * every pass; workloads take more between their timed calls, so every
 * stretch of host time lies between two nearby points (host_cal).
 */
struct CalibrationPoint
{
    Clock::time_point begin;
    Clock::time_point end;
    double seconds = 0.0;
};
void setCalibrationSink(std::vector<CalibrationPoint> *sink);
void calibrationPoint();

/** One timed run of the calibration computation, seconds. It fills,
 * sorts and hashes integers and strings, the allocation- and
 * branch-heavy mix compiler passes are made of, and calls nothing in
 * the library. */
double calibrationSeconds();

/** Median time of calibrationSeconds() on the baseline host (a
 * 4-vCPU x86-64 VM); setup_s is scaled to this host speed. */
constexpr double kCalibrationBaselineS = 0.08;

/** Peak resident set size of this process, MB. */
double peakRssMb();

double median(std::vector<double> values);
double geomean(const std::vector<double> &values);

/** Nearest-rank percentile of @p values (p in [0, 100]). */
double percentile(std::vector<double> values, double p);

/**
 * Run the five Table-2 models at their tiny configurations and a
 * random graph drawn from @p seed through an AStitch Session::run and
 * compare every output against the reference Evaluator at the
 * integration-test tolerance. Feeds are drawn from @p seed too.
 */
void checkReferenceOutputs(std::uint64_t seed, Outcome &outcome);

/** What one workload hands to the measuring loop of main(). */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Generate inputs and clear caches, before any timed call of a
     * pass (setup_s times it). */
    virtual void setup() = 0;

    /** Drop the inputs of the previous setup(); not part of setup_s. */
    virtual void teardown() = 0;

    /**
     * One measured pass over the inputs. With @p tracer set, the pass
     * records spans around every call into the library and may take
     * the traced code path. Returns the pass's metrics: "host_s" (wall
     * time of the timed calls), deterministic values and counts.
     */
    virtual Metrics pass(Tracer *tracer, Outcome &outcome) = 0;

    /** Names of pass metrics that must repeat exactly across passes
     * of one seed (simulated, virtual and count values). */
    virtual std::vector<std::string> deterministicMetrics() const = 0;

    /** Layers the traced pass measures outside the path of the untraced
     * pass; trace.coverage leaves their spans out. */
    virtual std::vector<std::string> offPathLayers() const { return {}; }

    /** Lines describing the last pass for the human-readable report. */
    virtual std::vector<std::string> notes() const { return {}; }
};

/** Compile pool size of every Session (the host has 4 cores). */
constexpr int kCompileThreads = 2;

/** Inputs every workload is built from. */
struct WorkloadConfig
{
    std::uint64_t seed = 1;
    /** Scratch directory for caches, inside the checkout. */
    std::string scratch_dir;
};

std::unique_ptr<Workload> makeZooJit(const WorkloadConfig &config);
std::unique_ptr<Workload> makeSec641(const WorkloadConfig &config);
std::unique_ptr<Workload> makeServeMix(const WorkloadConfig &config);

} // namespace perfbench

#endif // ASTITCH_PERFBENCH_BENCH_H
