/**
 * @file
 * sec641_large_graph: Sec 6.4.1's random graphs (2% matmul, unbounded
 * remote stitching) at 5,000 and 10,000 nodes, each compiled cold once
 * with AStitch, with no JIT or disk cache, and profiled once.
 *
 * The graphs are the fixed draws bench/sec641_compile_overhead uses
 * (generator seed 17), not drawn from the run seed: compile time
 * follows how a draw folds into giant clusters, and even the mean over
 * five draws per size moved by 40% from one run seed to the next, more
 * than any host-time bound can absorb.
 *
 * Why: each graph folds into two giant clusters, so super-linear
 * codegen and hazard analysis are nearly all of the time. The workload
 * bypasses the disk cache, the serving layer and most simulator work,
 * so a change to those layers is predicted to show no change here.
 */
#include "backends/xla/xla_backend.h"
#include "pipeline.h"
#include "workloads/random_graph.h"

namespace perfbench {

using namespace astitch;

namespace {

/** Generator seed of the Sec 6.4.1 graphs. */
constexpr std::uint64_t kGraphSeed = 17;

class Sec641 : public Workload
{
  public:
    explicit Sec641(const WorkloadConfig &config) : config_(config) {}

    void setup() override
    {
        for (int nodes : {5000, 10000}) {
            workloads::RandomGraphConfig random;
            random.num_nodes = nodes;
            random.seed = kGraphSeed;
            graphs_.push_back(workloads::buildRandomGraph(random));
        }
    }

    void teardown() override { graphs_.clear(); }

    Metrics pass(Tracer *tracer, Outcome &outcome) override
    {
        PassTotals totals;
        std::vector<double> compile_s, speedups;
        double profile_s = 0.0, xla_s = 0.0;
        for (std::size_t g = 0; g < graphs_.size(); ++g) {
            const Graph &graph = graphs_[g];
            if (g > 0)
                calibrationPoint();
            const ColdCompile cold = compileCold(
                graph, GpuSpec::v100(), "", tracer,
                "random graph " + std::to_string(graph.numNodes()), outcome);
            compile_s.push_back(cold.wall_s);
            totals.addCompile(cold);

            double astitch_us;
            {
                Span span(tracer, "sim.profile");
                const Clock::time_point t0 = Clock::now();
                const RunReport report = cold.session->profile();
                profile_s += secondsSince(t0);
                astitch_us = totals.addProfile(report);
            }

            {
                Span span(tracer, "backends.xla");
                const Clock::time_point t0 = Clock::now();
                SessionOptions options;
                options.compile_threads = kCompileThreads;
                Session xla(graph, std::make_unique<XlaBackend>(), options);
                const double xla_us = xla.profile().end_to_end_us;
                xla_s += secondsSince(t0);
                speedups.push_back(xla_us / astitch_us);
            }
        }
        const double total_compile_s = compile_s[0] + compile_s[1];

        Metrics m;
        m.set("host_s", total_compile_s + profile_s + xla_s, "s");
        m.set("runtime.compile_s", total_compile_s, "s");
        m.set("runtime.compile_growth", compile_s[1] / compile_s[0],
              "ratio");
        m.set("sim.speedup_vs_xla", geomean(speedups), "x");
        totals.report(m);
        return m;
    }

    std::vector<std::string> deterministicMetrics() const override
    {
        std::vector<std::string> names = PassTotals::metricNames();
        names.push_back("sim.speedup_vs_xla");
        return names;
    }

  private:
    WorkloadConfig config_;
    std::vector<Graph> graphs_;
};

} // namespace

std::unique_ptr<Workload>
makeSec641(const WorkloadConfig &config)
{
    return std::make_unique<Sec641>(config);
}

} // namespace perfbench
