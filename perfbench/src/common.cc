#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "bench.h"
#include "core/astitch_backend.h"
#include "runtime/session.h"
#include "workloads/asr.h"
#include "workloads/bert.h"
#include "workloads/common.h"
#include "workloads/crnn.h"
#include "workloads/dien.h"
#include "workloads/random_graph.h"
#include "workloads/transformer.h"

namespace perfbench {

void
Metrics::set(const std::string &name, double value, const std::string &unit)
{
    for (Entry &e : entries_) {
        if (e.name == name) {
            e.value = value;
            e.unit = unit;
            return;
        }
    }
    entries_.push_back({name, value, unit});
}

double
Metrics::get(const std::string &name) const
{
    for (const Entry &e : entries_)
        if (e.name == name)
            return e.value;
    throw std::out_of_range("no metric " + name);
}

bool
Outcome::check(bool ok, const std::string &what)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (messages_.size() < 20)
            messages_.push_back(what);
    }
    return ok;
}

namespace {

thread_local int t_current_span = -1;
std::vector<CalibrationPoint> *g_calibration_sink = nullptr;

/** Total length of the union of [t0, t1) intervals. */
double
unionLength(std::vector<std::pair<double, double>> intervals)
{
    std::sort(intervals.begin(), intervals.end());
    double total = 0.0;
    double lo = 0.0, hi = -1.0;
    for (const auto &[a, b] : intervals) {
        if (a > hi) {
            if (hi > lo)
                total += hi - lo;
            lo = a;
            hi = b;
        } else {
            hi = std::max(hi, b);
        }
    }
    if (hi > lo)
        total += hi - lo;
    return total;
}

} // namespace

double
calibrationSeconds()
{
    const Clock::time_point t0 = Clock::now();
    std::uint64_t x = 88172645463325252ULL;
    std::vector<std::uint64_t> numbers(400000);
    for (std::uint64_t &n : numbers) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        n = x;
    }
    std::sort(numbers.begin(), numbers.end());
    std::unordered_map<std::uint64_t, int> buckets;
    for (int i = 0; i < 100000; ++i)
        buckets[numbers[static_cast<std::size_t>(i) * 3] >> 20] += i;
    std::vector<std::string> words;
    for (std::size_t i = 0; i < 50000; ++i)
        words.push_back(std::to_string(numbers[i]));
    std::sort(words.begin(), words.end());
    volatile std::size_t sink = buckets.size() + words.front().size();
    (void)sink;
    return secondsSince(t0);
}

Tracer::Tracer() : origin_(Clock::now()) {}

int
Tracer::begin(const std::string &layer, int parent)
{
    const double t0 = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({layer, parent, t0, t0});
    return static_cast<int>(spans_.size()) - 1;
}

void
Tracer::end(int id)
{
    const double t1 = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].t1 = t1;
}

std::map<std::string, double>
Tracer::selfMs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Record &r : spans_)
        if (r.parent >= 0)
            children[static_cast<std::size_t>(r.parent)].push_back(
                {r.t0, r.t1});
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        for (auto &[a, b] : children[i]) {
            a = std::clamp(a, r.t0, r.t1);
            b = std::clamp(b, r.t0, r.t1);
        }
        self[r.layer] +=
            (r.t1 - r.t0 - unionLength(std::move(children[i]))) * 1e3;
    }
    return self;
}

double
Tracer::maxMs(const std::string &layer) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double worst = 0.0;
    for (const Record &r : spans_)
        if (r.layer == layer)
            worst = std::max(worst, (r.t1 - r.t0) * 1e3);
    return worst;
}

double
Tracer::coverage(const std::vector<std::string> &off_path) const
{
    const double now = secondsSince(origin_);
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::pair<double, double>> on, off;
    for (const Record &r : spans_) {
        const bool excluded = std::find(off_path.begin(), off_path.end(),
                                        r.layer) != off_path.end();
        (excluded ? off : on).push_back({r.t0, r.t1});
    }
    const double window = now - unionLength(std::move(off));
    return window > 0.0 ? unionLength(std::move(on)) / window : 0.0;
}

Span::Span(Tracer *tracer, const std::string &layer, int parent)
    : tracer_(tracer)
{
    if (!tracer_)
        return;
    id_ = tracer_->begin(layer, parent == kCurrent ? t_current_span
                                                   : parent);
    saved_current_ = t_current_span;
    t_current_span = id_;
}

Span::~Span()
{
    if (!tracer_)
        return;
    tracer_->end(id_);
    t_current_span = saved_current_;
}

void
setCalibrationSink(std::vector<CalibrationPoint> *sink)
{
    g_calibration_sink = sink;
}

void
calibrationPoint()
{
    if (!g_calibration_sink)
        return;
    CalibrationPoint point;
    point.begin = Clock::now();
    point.seconds = median(
        {calibrationSeconds(), calibrationSeconds(), calibrationSeconds()});
    point.end = Clock::now();
    g_calibration_sink->push_back(point);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p / 100.0 *
                                  static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

void
checkReferenceOutputs(std::uint64_t seed, Outcome &outcome)
{
    using namespace astitch;
    using namespace astitch::workloads;
    std::vector<std::pair<std::string, Graph>> models;
    models.emplace_back("BERT", buildBert(BertConfig::tiny()));
    models.emplace_back("Transformer",
                        buildTransformer(TransformerConfig::tiny()));
    models.emplace_back("DIEN", buildDien(DienConfig::tiny()));
    models.emplace_back("ASR", buildAsr(AsrConfig::tiny()));
    models.emplace_back("CRNN", buildCrnn(CrnnConfig::tiny()));
    RandomGraphConfig random;
    random.num_nodes = 400;
    random.seed = seed;
    random.max_dim = 16;
    models.emplace_back("random graph", buildRandomGraph(random));
    for (const auto &[name, graph] : models) {
        const TensorMap feeds = makeRandomFeeds(graph, seed);
        const std::vector<Tensor> expected = Evaluator(graph).run(feeds);
        SessionOptions options;
        options.compile_threads = kCompileThreads;
        Session session(graph, std::make_unique<AStitchBackend>(), options);
        const RunReport report = session.run(feeds);
        bool match = report.outputs.size() == expected.size();
        for (std::size_t i = 0; match && i < expected.size(); ++i)
            match = report.outputs[i].allClose(expected[i], 1e-4, 1e-5);
        outcome.check(match, name +
                                 ": AStitch outputs differ from the "
                                 "reference evaluator");
        outcome.check(!session.diagnostics().hasErrors(),
                      name + ": analyzer Error finding");
    }
}

} // namespace perfbench
