/**
 * @file
 * serve_mix: the ext_serve tenant mix (bert-a and bert-b share one
 * model, plus dien and asr) swept over a fixed geometric rate ladder,
 * x1 to x16 of the mix in sqrt(2) steps, each step 10 s of open-loop
 * Poisson traffic on the router's virtual clock.
 *
 * Why: each step fires tens of thousands of batches through
 * DynamicSession, each priced by the simulator, and about two dozen
 * real compiles coalesce through the single-flight JIT cache. So the
 * serve and sim layers dominate host time, and compile storms shape
 * the virtual tail. Caches are memory-only and the JIT cache is
 * cleared before every step, so each step starts cold.
 *
 * Each tenant's admission limit is 1.25x its offered rate, so
 * admission refuses only bursts; a refused request counts as a miss.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <stdexcept>
#include <tuple>

#include "bench.h"
#include "core/astitch_backend.h"
#include "runtime/jit_cache.h"
#include "serve/router.h"
#include "workloads/common.h"

namespace perfbench {

using namespace astitch;
using namespace astitch::serve;

namespace {

constexpr int kSteps = 9;             ///< x1 .. x16 in sqrt(2) steps
constexpr int kLowStep = 0;           ///< x1
constexpr int kHighStep = 6;          ///< x8
constexpr double kStepUs = 10e6;      ///< virtual length of one step
constexpr double kLimitUs = 10000.0;  ///< serve_max_qps latency limit
/** Latency charged to a refused request: the whole step, longer than
 * any served latency, so a refusal counts as a miss at every limit. */
constexpr double kMissUs = kStepUs;

/** Forwards to AStitch and records a codegen span per cluster. */
class TracedBackend : public Backend
{
  public:
    TracedBackend(Tracer *tracer, const int *parent)
        : tracer_(tracer), parent_(parent)
    {
    }

    std::string name() const override { return inner_.name(); }
    bool wantsRemoteStitching() const override
    {
        return inner_.wantsRemoteStitching();
    }
    CompiledCluster compileCluster(const Graph &graph,
                                   const Cluster &cluster,
                                   const GpuSpec &spec) const override
    {
        Span span(tracer_, "core.codegen", *parent_);
        return inner_.compileCluster(graph, cluster, spec);
    }

  private:
    AStitchBackend inner_;
    Tracer *tracer_;
    const int *parent_;
};

std::string
stepLabel(int step)
{
    char label[16];
    std::snprintf(label, sizeof(label), "x%g",
                  std::round(std::pow(2.0, step / 2.0) * 100.0) / 100.0);
    return label;
}

class ServeMix : public Workload
{
  public:
    explicit ServeMix(const WorkloadConfig &config) : config_(config) {}

    void setup() override
    {
        const Clock::time_point t0 = Clock::now();
        const std::vector<TenantSpec> base = baseTenants();
        for (int step = 0; step < kSteps; ++step) {
            Step s;
            s.tenants = base;
            for (TenantSpec &tenant : s.tenants) {
                tenant.rate_qps *= std::pow(2.0, step / 2.0);
                tenant.admit_qps = 1.25 * tenant.rate_qps;
                s.offered_qps += tenant.rate_qps;
            }
            TrafficOptions traffic;
            traffic.seed = config_.seed * 7919ULL + step;
            traffic.duration_us = kStepUs;
            s.trace = generateTrace(s.tenants, traffic);
            steps_.push_back(std::move(s));
        }
        trace_gen_ms_ = secondsSince(t0) * 1e3;
    }

    void teardown() override { steps_.clear(); }

    Metrics pass(Tracer *tracer, Outcome &outcome) override
    {
        double replay_s = 0.0;
        int replay_span = -1;
        std::int64_t served = 0, degraded = 0, refused_admission = 0,
                     refused_queue = 0, compiles_full = 0,
                     compiles_twin = 0, batches = 0, jit_hits = 0,
                     jit_lookups = 0, coalesced_joins = 0;
        double occupancy_weighted = 0.0, max_qps = 0.0;
        std::vector<double> service_us;
        Metrics m;
        notes_.clear();

        for (int step = 0; step < kSteps; ++step) {
            const Step &s = steps_[static_cast<std::size_t>(step)];
            if (step > 0)
                calibrationPoint();
            JitCache::global().clear();
            RouterOptions options;
            options.batch.max_batch = 4;
            options.batch.max_delay_us = 3000.0;
            options.session.use_jit_cache = true;
            options.session.compile_threads = kCompileThreads;
            options.load_shedding = true;
            if (tracer) {
                options.backend = [tracer, &replay_span] {
                    return std::make_unique<TracedBackend>(tracer,
                                                           &replay_span);
                };
            } else {
                options.backend = [] {
                    return std::make_unique<AStitchBackend>();
                };
            }
            ServeRouter router(s.tenants, options);
            ServeResult result;
            {
                Span span(tracer, "serve.replay");
                replay_span = span.id();
                const Clock::time_point t0 = Clock::now();
                result = router.run(s.trace);
                replay_s += secondsSince(t0);
            }
            // The cache's own hit counts follow when the real background
            // compiles finish on the host, so the hit ratio is a host
            // figure; the router's count of joins on an in-flight
            // compile is virtual and repeats exactly.
            const JitCache::Stats jit = JitCache::global().stats();
            jit_hits += jit.hits;
            jit_lookups += jit.hits + jit.misses + jit.coalesced;
            coalesced_joins += result.coalesced_joins;

            // ---- Per-request accounting; refused requests miss. ----
            std::vector<double> latency, queue_wait;
            latency.reserve(s.trace.size());
            std::int64_t within_limit = 0;
            std::set<std::tuple<int, double, bool>> seen_batches;
            std::vector<const Response *> batch_heads;
            for (const Response &r : result.responses) {
                if (r.shed) {
                    outcome.check(r.reason != ShedReason::None,
                                  "request refused without a reason");
                    refused_admission +=
                        r.reason == ShedReason::AdmissionRate;
                    refused_queue += r.reason == ShedReason::QueueFull;
                    latency.push_back(kMissUs);
                    continue;
                }
                if (!outcome.check(r.done_us > 0.0,
                                   "request neither served nor refused"))
                    continue;
                latency.push_back(r.latency_us);
                queue_wait.push_back(r.start_us - r.arrival_us);
                within_limit += r.latency_us <= kLimitUs;
                if (seen_batches.insert({r.tenant, r.start_us, r.degraded})
                        .second) {
                    batch_heads.push_back(&r);
                    service_us.push_back(r.done_us - r.start_us);
                }
            }
            outcome.check(latency.size() == s.trace.size(),
                          "responses do not cover the trace");
            served += result.served;
            degraded += result.degraded_serves;
            compiles_full += result.compiled_full;
            compiles_twin += result.compiled_twin;
            batches += result.total_batches;
            for (const TenantStats &t : result.tenants)
                occupancy_weighted +=
                    t.avg_occupancy * static_cast<double>(t.batches);

            const double backlog_us = result.last_done_us - kStepUs;
            const double within_share =
                static_cast<double>(within_limit) /
                static_cast<double>(s.trace.size());
            if (within_share >= 0.99 && backlog_us <= kLimitUs)
                max_qps = std::max(max_qps, s.offered_qps);
            m.set("serve.backlog_us." + stepLabel(step), backlog_us,
                  "virt_us");
            char line[200];
            std::snprintf(line, sizeof(line),
                          "step %-6s offered %8.1f req/s  sent %7zu  "
                          "within 10 ms %6.2f%%  p99 %10.1f virt_us  "
                          "backlog %10.1f virt_us",
                          stepLabel(step).c_str(), s.offered_qps,
                          s.trace.size(), within_share * 100.0,
                          percentile(latency, 99.0), backlog_us);
            notes_.push_back(line);

            if (step == kLowStep || step == kHighStep) {
                const std::string tag = step == kLowStep ? "low" : "high";
                m.set("serve.p50_us." + tag, percentile(latency, 50.0),
                      "virt_us");
                m.set("serve.p99_us." + tag, percentile(latency, 99.0),
                      "virt_us");
                m.set("serve.samples." + tag,
                      static_cast<double>(latency.size()), "count");
                m.set("serve.queue_wait_p99_us." + tag,
                      percentile(queue_wait, 99.0), "virt_us");
            }
            if (step == kLowStep)
                m.set("serve.storm_end_us", result.last_full_ready_us,
                      "virt_us");

            // ---- Traced only: price every fired batch again, one
            // span each, to measure the simulator's share. This is off
            // the replay's path (see offPathLayers()). ----
            if (tracer) {
                for (const Response *r : batch_heads) {
                    Span span(tracer, "sim.profile");
                    DynamicSession &session = router.session(r->tenant);
                    if (r->degraded)
                        session.serveBatchDegraded(r->bucket);
                    else
                        session.serveBatch(r->bucket);
                }
            }
        }

        m.set("host_s", replay_s, "s");
        m.set("serve.replay_s", replay_s, "s");
        m.set("serve.max_qps", max_qps, "req/s");
        m.set("serve.degraded_ratio",
              static_cast<double>(degraded) / static_cast<double>(served),
              "ratio");
        m.set("serve.lateness_us", 0.0, "virt_us");
        m.set("serve.trace_gen_ms", trace_gen_ms_, "ms");
        m.set("serve.service_p50_us", percentile(service_us, 50.0),
              "virt_us");
        m.set("serve.batch_size_mean",
              static_cast<double>(served) / static_cast<double>(batches),
              "count");
        m.set("serve.batch_occupancy",
              occupancy_weighted / static_cast<double>(batches), "ratio");
        m.set("serve.refused_admission",
              static_cast<double>(refused_admission), "count");
        m.set("serve.refused_queue", static_cast<double>(refused_queue),
              "count");
        m.set("serve.compiles_full", static_cast<double>(compiles_full),
              "count");
        m.set("serve.compiles_twin", static_cast<double>(compiles_twin),
              "count");
        m.set("runtime.jit_hit_ratio",
              static_cast<double>(jit_hits) /
                  static_cast<double>(std::max<std::int64_t>(1, jit_lookups)),
              "ratio");
        m.set("runtime.jit_coalesced", static_cast<double>(coalesced_joins),
              "count");
        return m;
    }

    std::vector<std::string> deterministicMetrics() const override
    {
        std::vector<std::string> names = {
            "serve.max_qps",
            "serve.degraded_ratio", "serve.service_p50_us",
            "serve.batch_size_mean", "serve.batch_occupancy",
            "serve.refused_admission", "serve.refused_queue",
            "serve.compiles_full",  "serve.compiles_twin",
            "serve.storm_end_us",   "runtime.jit_coalesced"};
        for (const char *tag : {"low", "high"}) {
            for (const char *name : {"serve.p50_us.", "serve.p99_us.",
                                     "serve.samples.",
                                     "serve.queue_wait_p99_us."})
                names.push_back(std::string(name) + tag);
        }
        for (int step = 0; step < kSteps; ++step)
            names.push_back("serve.backlog_us." + stepLabel(step));
        return names;
    }

    std::vector<std::string> offPathLayers() const override
    {
        return {"sim.profile"};
    }

    std::vector<std::string> notes() const override
    {
        std::vector<std::string> lines = notes_;
        lines.push_back("generator lateness is 0 by construction: "
                        "arrivals are scheduled on the router's virtual "
                        "clock, so no request is sent late");
        lines.push_back("sim.profile_ms is a second pricing of every "
                        "fired batch outside ServeRouter::run; "
                        "serve.replay_ms still holds the replay's own "
                        "pricing, and trace.coverage leaves the "
                        "re-pricing out");
        return lines;
    }

  private:
    struct Step
    {
        double offered_qps = 0.0;
        std::vector<TenantSpec> tenants;
        std::vector<Request> trace;
    };

    /** The ext_serve mix at x1: item ranges and rates per tenant. */
    static std::vector<TenantSpec> baseTenants()
    {
        const std::vector<workloads::DynamicWorkloadSpec> models =
            workloads::dynamicInferenceWorkloads();
        const auto tenant = [&](const std::string &model,
                                const std::string &name, double rate_qps,
                                std::int64_t min_items,
                                std::int64_t max_items) {
            const auto it = std::find_if(
                models.begin(), models.end(),
                [&](const auto &w) { return w.name == model; });
            if (it == models.end())
                throw std::runtime_error("no dynamic workload " + model);
            TenantSpec spec;
            spec.name = name;
            spec.model = it->name;
            spec.graph = it->build;
            spec.dim_name = it->dim_name;
            spec.divisor = it->divisor;
            spec.rate_qps = rate_qps;
            spec.min_items = min_items;
            spec.max_items = max_items;
            spec.admit_burst = 8.0;
            return spec;
        };
        return {
            tenant("BERT", "bert-a", 400.0, 50, 100),
            tenant("BERT", "bert-b", 150.0, 50, 100),
            tenant("DIEN", "dien", 300.0, 36, 72),
            tenant("ASR", "asr", 250.0, 50, 100),
        };
    }

    WorkloadConfig config_;
    std::vector<Step> steps_;
    double trace_gen_ms_ = 0.0;
    std::vector<std::string> notes_;
};

} // namespace

std::unique_ptr<Workload>
makeServeMix(const WorkloadConfig &config)
{
    return std::make_unique<ServeMix>(config);
}

} // namespace perfbench
