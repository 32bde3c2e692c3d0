/**
 * @file
 * The repository benchmark binary.
 *
 *   perfbench --workload zoo_jit|sec641_large_graph|serve_mix
 *             --seed N --seconds S --trace 0|1 --scratch DIR
 *
 * Checks the tiny models and a seed-drawn random graph against the
 * reference evaluator, sets the workload up 25 times (setup_s is the
 * median, each set-up scaled to the baseline host's speed by a
 * calibration sample taken just before it), then runs measured passes
 * until S seconds have gone, at least one, and reports the median host
 * time, also as a multiple of a fixed calibration computation timed
 * between the passes' steps (host_cal: the median over passes of the
 * pass's host time over the calibration time across that pass).
 * Simulated, virtual and count metrics must repeat exactly across the
 * passes (and the traced pass) of one seed; any drift is a failed
 * check. With --trace 1 one more pass records spans around every call
 * into the library and reports per-layer self times, the spans'
 * coverage of that pass outside off-path layers, and its wall-time
 * difference from the untraced passes (the tracing overhead).
 *
 * Prints one "metric <name> = <value> <unit>" line per metric, then a
 * JSON line {"correct", "attempted", "failed", "metrics"} holding every
 * metric. Exits 1 when any check failed, 2 on bad arguments.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.h"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0.0;
    bool trace = false;
    std::string scratch;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--scratch")
            args.scratch = value;
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
           !args.scratch.empty();
}

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 25;

/**
 * Calibration seconds over points @p first..@p last: every stretch
 * between two neighbouring points counts with its wall time, at the
 * mean of the two points' values.
 */
double
calibrationOver(const std::vector<CalibrationPoint> &points,
                std::size_t first, std::size_t last)
{
    double weighted = 0.0, total_s = 0.0;
    for (std::size_t i = first + 1; i <= last; ++i) {
        const double stretch_s =
            std::chrono::duration<double>(points[i].begin -
                                          points[i - 1].end)
                .count();
        weighted +=
            stretch_s * 0.5 * (points[i - 1].seconds + points[i].seconds);
        total_s += stretch_s;
    }
    return weighted / total_s;
}

std::string
jsonNumber(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 --scratch DIR\n");
        return 2;
    }
    WorkloadConfig config;
    config.seed = args.seed;
    config.scratch_dir = args.scratch;
    std::unique_ptr<Workload> workload;
    if (args.workload == "zoo_jit")
        workload = makeZooJit(config);
    else if (args.workload == "sec641_large_graph")
        workload = makeSec641(config);
    else if (args.workload == "serve_mix")
        workload = makeServeMix(config);
    else {
        std::fprintf(stderr, "unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }

    Outcome outcome;
    Metrics out;
    std::vector<std::string> notes;
    try {
        checkReferenceOutputs(args.seed, outcome);

        // Each set-up is timed right after one calibration sample and
        // scaled by it to the baseline host's speed: the shared
        // machine's speed drifts within seconds, and a set-up is short.
        std::vector<double> setup_s, setup_raw_s;
        for (int i = 0; i < kSetups; ++i) {
            workload->teardown();
            const double calibration_s = calibrationSeconds();
            const Clock::time_point t0 = Clock::now();
            workload->setup();
            setup_raw_s.push_back(secondsSince(t0));
            setup_s.push_back(setup_raw_s.back() / calibration_s *
                              kCalibrationBaselineS);
        }

        std::vector<Metrics> passes;
        std::vector<CalibrationPoint> calibration;
        std::vector<double> pass_calibration_s, host_cal;
        setCalibrationSink(&calibration);
        calibrationPoint();
        const Clock::time_point start = Clock::now();
        while (passes.empty() || secondsSince(start) < args.seconds) {
            const std::size_t first = calibration.size() - 1;
            passes.push_back(workload->pass(nullptr, outcome));
            calibrationPoint();
            pass_calibration_s.push_back(calibrationOver(
                calibration, first, calibration.size() - 1));
            host_cal.push_back(passes.back().get("host_s") /
                               pass_calibration_s.back());
        }
        setCalibrationSink(nullptr);

        const std::vector<std::string> exact =
            workload->deterministicMetrics();
        const auto isExact = [&](const std::string &name) {
            return std::find(exact.begin(), exact.end(), name) !=
                   exact.end();
        };
        const auto checkDrift = [&](const Metrics &pass,
                                    const std::string &what) {
            for (const std::string &name : exact)
                outcome.check(pass.get(name) == passes[0].get(name),
                              name + " drifted across " + what);
        };
        for (std::size_t i = 1; i < passes.size(); ++i)
            checkDrift(passes[i], "passes of one seed");

        out.set("setup_s", median(setup_s), "s");
        out.set("setup_raw_s", median(setup_raw_s), "s");
        for (const Metrics::Entry &e : passes[0].entries()) {
            if (isExact(e.name)) {
                out.set(e.name, e.value, e.unit);
                continue;
            }
            std::vector<double> values;
            for (const Metrics &pass : passes)
                values.push_back(pass.get(e.name));
            out.set(e.name, median(values), e.unit);
        }
        out.set("calibration_s", median(pass_calibration_s), "s");
        out.set("host_cal", median(host_cal), "x");
        out.set("passes", static_cast<double>(passes.size()), "count");
        std::string setup_times = "raw setup_s per set-up:";
        for (double t : setup_raw_s)
            setup_times += ' ' + std::to_string(t);
        notes.push_back(setup_times);
        std::string pass_times = "host_s per pass:";
        for (const Metrics &pass : passes) {
            pass_times += ' ';
            pass_times += std::to_string(pass.get("host_s"));
        }
        notes.push_back(pass_times);
        std::string pass_cal = "host_cal per pass:";
        for (double value : host_cal)
            pass_cal += ' ' + std::to_string(value);
        notes.push_back(pass_cal);

        if (args.trace) {
            Tracer tracer;
            const Metrics traced = workload->pass(&tracer, outcome);
            const double coverage =
                tracer.coverage(workload->offPathLayers());
            checkDrift(traced, "the traced and untraced runs");
            for (const auto &[layer, ms] : tracer.selfMs())
                out.set(layer + "_ms", ms, "ms");
            out.set("core.codegen_max_ms", tracer.maxMs("core.codegen"),
                    "ms");
            out.set("trace.coverage", coverage, "ratio");
            out.set("trace.overhead_s",
                    traced.get("host_s") - out.get("host_s"), "s");
            outcome.check(coverage >= 0.95,
                          "spans cover less than 95% of the traced pass");
        }
        out.set("peak_rss_mb", peakRssMb(), "MB");
        for (const Metrics::Entry &e : out.entries())
            outcome.check(std::isfinite(e.value),
                          e.name + " is not finite");
    } catch (const std::exception &e) {
        outcome.check(false, std::string("exception: ") + e.what());
    }

    out.set("error_rate",
            outcome.attempted() > 0
                ? static_cast<double>(outcome.failed()) /
                      static_cast<double>(outcome.attempted())
                : 1.0,
            "ratio");
    std::printf("workload %s seed %llu trace %d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0);
    for (const std::string &line : workload->notes())
        notes.push_back(line);
    for (const std::string &line : notes)
        std::printf("  %s\n", line.c_str());
    for (const Metrics::Entry &e : out.entries())
        std::printf("metric %s = %.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
    for (const std::string &message : outcome.messages())
        std::printf("FAILED: %s\n", message.c_str());

    std::string json = "{\"correct\": ";
    json += outcome.failed() == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted());
    json += ", \"failed\": " + std::to_string(outcome.failed());
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metrics::Entry &e : out.entries()) {
        if (!std::isfinite(e.value))
            continue;
        json += first ? "" : ", ";
        first = false;
        json += "\"" + e.name + "\": {\"value\": " + jsonNumber(e.value) +
                ", \"unit\": \"" + e.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return outcome.failed() == 0 ? 0 : 1;
}
