#include "opt/autotuner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <utility>

#include "analysis/analyzer.h"
#include "compiler/fingerprint.h"
#include "sim/cost_model.h"
#include "support/rng.h"
#include "support/strings.h"

namespace astitch {

namespace {

constexpr double kInfCost = std::numeric_limits<double>::infinity();

/** Minimum relative win over the heuristic before a candidate counts
 * as an improvement (guards against float noise flipping decisions). */
constexpr double kImprovementEps = 1e-6;

/**
 * One decision site with its alternatives. Choice 0 is always "keep
 * the heuristic"; sites are visited in deterministic (node id) order.
 */
struct Site
{
    NodeId node = 0;
    bool is_scheme = false;
    std::vector<MappingOverride> mapping_choices; ///< choices 1..n
    std::vector<StitchScheme> scheme_choices;     ///< choices 1..n

    int numChoices() const
    {
        return 1 + static_cast<int>(is_scheme ? scheme_choices.size()
                                              : mapping_choices.size());
    }
};

/** Bound on decision sites per cluster: beyond this the candidate
 * budget could not meaningfully cover the space anyway. */
constexpr std::size_t kMaxSites = 48;

std::vector<Site>
enumerateSites(const Graph &, const Cluster &, const GpuSpec &spec,
               const StitchDiagnostics &diag)
{
    std::vector<Site> sites;

    // ---- Mapping sites: one per group, keyed by dominant. ----
    std::vector<int> group_order(diag.analysis.groups.size());
    for (std::size_t g = 0; g < group_order.size(); ++g)
        group_order[g] = static_cast<int>(g);
    std::sort(group_order.begin(), group_order.end(), [&](int a, int b) {
        return diag.analysis.groups[a].dominant <
               diag.analysis.groups[b].dominant;
    });
    const auto block_choices = [&](int heuristic_block,
                                   std::initializer_list<int> blocks) {
        std::vector<MappingOverride> choices;
        for (int b : blocks) {
            if (b != heuristic_block && b <= spec.max_threads_per_block)
                choices.push_back(MappingOverride{b, 0});
        }
        return choices;
    };
    for (int g : group_order) {
        const DominantGroup &group = diag.analysis.groups[g];
        const GroupSchedule &sched = diag.schedules[g];
        Site site;
        site.node = group.dominant;
        const int hblock = sched.mapping.launch.block;
        if (sched.is_reduce_group && !sched.mapping.uses_atomics) {
            // Row reduction: alternative packing budgets and explicit
            // split factors (the <64,30000>-style fix at other points).
            site.mapping_choices = block_choices(hblock, {128, 256, 512});
            for (int split : {2, 4}) {
                if (split != sched.mapping.split_factor)
                    site.mapping_choices.push_back(
                        MappingOverride{0, split});
            }
        } else if (sched.is_reduce_group) {
            // Column/split reduction: alternative block budgets only.
            site.mapping_choices =
                block_choices(hblock, {128, 512, 1024});
        } else {
            // Element-wise group: alternative budgets; an override here
            // also beats proactive adaptation, letting the tuner try
            // parallelism-first where the heuristic chose locality.
            site.mapping_choices =
                block_choices(hblock, {128, 512, 1024});
        }
        if (!site.mapping_choices.empty())
            sites.push_back(std::move(site));
    }

    // ---- Scheme sites: Regional <-> Global per classified boundary. --
    std::vector<std::pair<NodeId, StitchScheme>> boundaries(
        diag.memory.schemes.begin(), diag.memory.schemes.end());
    std::sort(boundaries.begin(), boundaries.end());
    const std::unordered_map<NodeId, int> producers =
        diag.analysis.producingGroups();
    const auto producing_group = [&](NodeId x) -> int {
        const auto it = producers.find(x);
        return it == producers.end() ? -1 : it->second;
    };
    for (const auto &[node, scheme] : boundaries) {
        Site site;
        site.node = node;
        site.is_scheme = true;
        if (scheme == StitchScheme::Regional) {
            site.scheme_choices.push_back(StitchScheme::Global);
        } else if (scheme == StitchScheme::Global) {
            // Regional is only a legal alternative when the producer
            // publishes complete values (no atomics, no splitting).
            const int g = producing_group(node);
            if (g >= 0 && !diag.schedules[g].mapping.uses_atomics &&
                diag.schedules[g].mapping.split_factor == 1) {
                site.scheme_choices.push_back(StitchScheme::Regional);
            }
        }
        if (!site.scheme_choices.empty())
            sites.push_back(std::move(site));
    }

    if (sites.size() > kMaxSites)
        sites.resize(kMaxSites);
    return sites;
}

using Decision = std::vector<int>;

TuningOverrides
overridesFor(const std::vector<Site> &sites, const Decision &decision)
{
    TuningOverrides ov;
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const int choice = decision[i];
        if (choice <= 0)
            continue;
        const Site &site = sites[i];
        if (site.is_scheme)
            ov.schemes.emplace(site.node,
                               site.scheme_choices[choice - 1]);
        else
            ov.mappings.emplace(site.node,
                                site.mapping_choices[choice - 1]);
    }
    return ov;
}

/** Cluster-local index of @p node (position in Cluster::nodes). */
int
localIndexOf(const Cluster &cluster, NodeId node)
{
    const auto it = std::lower_bound(cluster.nodes.begin(),
                                     cluster.nodes.end(), node);
    if (it == cluster.nodes.end() || *it != node)
        return -1;
    return static_cast<int>(it - cluster.nodes.begin());
}

void
entryFromOverrides(const Cluster &cluster, const TuningOverrides &ov,
                   TuningDbEntry *entry)
{
    for (const auto &[node, scheme] : ov.schemes) {
        const int local = localIndexOf(cluster, node);
        if (local >= 0)
            entry->schemes.push_back(
                {local, static_cast<int>(scheme)});
    }
    for (const auto &[node, mapping] : ov.mappings) {
        const int local = localIndexOf(cluster, node);
        if (local >= 0)
            entry->mappings.push_back(
                {local, mapping.block, mapping.split});
    }
    // Map iteration order is unspecified; keep the stored form canonical.
    std::sort(entry->schemes.begin(), entry->schemes.end(),
              [](const auto &a, const auto &b) { return a.node < b.node; });
    std::sort(entry->mappings.begin(), entry->mappings.end(),
              [](const auto &a, const auto &b) { return a.node < b.node; });
}

TuningOverrides
overridesFromEntry(const Cluster &cluster, const TuningDbEntry &entry)
{
    TuningOverrides ov;
    const auto node_at = [&](int local) -> NodeId {
        return cluster.nodes[static_cast<std::size_t>(local)];
    };
    for (const TuningDbEntry::SchemeDecision &d : entry.schemes) {
        if (d.node < 0 ||
            d.node >= static_cast<int>(cluster.nodes.size()) ||
            d.scheme < 0 ||
            d.scheme > static_cast<int>(StitchScheme::Global)) {
            continue;
        }
        ov.schemes.emplace(node_at(d.node),
                           static_cast<StitchScheme>(d.scheme));
    }
    for (const TuningDbEntry::MappingDecision &d : entry.mappings) {
        if (d.node < 0 ||
            d.node >= static_cast<int>(cluster.nodes.size())) {
            continue;
        }
        MappingOverride m;
        m.block = d.block;
        m.split = d.split;
        if (m.any())
            ov.mappings.emplace(node_at(d.node), m);
    }
    return ov;
}

/** Shared state of one cluster's search. */
struct Search
{
    const Graph &graph;
    const Cluster &cluster;
    const GpuSpec &spec;
    const AStitchOptions &base;
    const TuningOptions &options;
    const std::vector<Site> &sites;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline = false;

    int evaluated = 0;
    int rejected = 0;
    std::map<Decision, double> memo;

    bool budgetExhausted() const
    {
        if (evaluated >= options.max_candidates)
            return true;
        return has_deadline &&
               std::chrono::steady_clock::now() >= deadline;
    }

    /** Compile + gate + price one candidate; kInfCost when illegal. */
    double evaluate(const Decision &decision)
    {
        const auto it = memo.find(decision);
        if (it != memo.end())
            return it->second;
        const TuningOverrides ov = overridesFor(sites, decision);
        double cost = kInfCost;
        ++evaluated;
        try {
            AStitchOptions copt = base;
            copt.tuning = ov;
            const CompiledCluster compiled =
                compileStitchOp(graph, cluster, spec, copt);
            DiagnosticEngine engine;
            const bool legal = analyzeCompiledCluster(
                graph, cluster, compiled, spec, engine);
            if (legal)
                cost = estimatedClusterCostUs(graph, compiled, spec);
            else
                ++rejected;
            if (options.observer)
                options.observer(ov, compiled, legal, cost);
        } catch (...) {
            // A candidate the pipeline itself refuses to compile (e.g.
            // an illegal launch the cost model fatals on) is simply not
            // a candidate.
            ++rejected;
        }
        memo.emplace(decision, cost);
        return cost;
    }
};

struct BeamState
{
    Decision decision;
    double cost = kInfCost;
};

/** Deterministic ordering: cheapest first, heuristic-most on ties. */
bool
stateLess(const BeamState &a, const BeamState &b)
{
    if (a.cost != b.cost)
        return a.cost < b.cost;
    return a.decision < b.decision;
}

void
pruneBeam(std::vector<BeamState> &beam, int width)
{
    std::sort(beam.begin(), beam.end(), stateLess);
    beam.erase(std::unique(beam.begin(), beam.end(),
                           [](const BeamState &a, const BeamState &b) {
                               return a.decision == b.decision;
                           }),
               beam.end());
    if (static_cast<int>(beam.size()) > width)
        beam.resize(static_cast<std::size_t>(width));
}

} // namespace

double
estimatedClusterCostUs(const Graph &graph, const CompiledCluster &compiled,
                       const GpuSpec &spec)
{
    const CostModel model(spec);
    double total = 0.0;
    for (const KernelPlan &plan : compiled.kernels) {
        const KernelRecord record =
            model.priceKernel(workDescFor(graph, plan));
        total += record.time_us + record.launch_overhead_us;
    }
    if (compiled.num_memcpy > 0) {
        const KernelRecord record =
            model.priceMemcpy("memset", compiled.memcpy_bytes);
        total += record.time_us +
                 record.launch_overhead_us * compiled.num_memcpy;
    }
    return total;
}

std::string
tuningOptionsTag(const AStitchOptions &options)
{
    return strCat("atm", options.adaptive_thread_mapping ? 1 : 0, "hdm",
                  options.hierarchical_stitching ? 1 : 0, "dm",
                  options.dominant_merging ? 1 : 0, "smem",
                  options.smem_budget_per_block);
}

AutotuneOutcome
autotuneCluster(const Graph &graph, const Cluster &cluster,
                const GpuSpec &spec, const AStitchOptions &base,
                const CompiledCluster &heuristic,
                const TuningOptions &options, TuningDb *db)
{
    AutotuneOutcome outcome;
    outcome.compiled = heuristic;
    outcome.result.fingerprint = clusterFingerprint(graph, cluster);
    const auto start = std::chrono::steady_clock::now();
    const auto finish = [&](AutotuneOutcome &out) -> AutotuneOutcome & {
        out.result.search_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - start)
                .count();
        return out;
    };

    try {
        outcome.result.heuristic_cost_us =
            estimatedClusterCostUs(graph, heuristic, spec);
        outcome.result.tuned_cost_us = outcome.result.heuristic_cost_us;
        const double heuristic_cost = outcome.result.heuristic_cost_us;
        const double win_bar = heuristic_cost * (1.0 - kImprovementEps);

        if (options.mode == TuningMode::Off || options.max_candidates <= 0)
            return finish(outcome);

        const std::string db_key =
            TuningDb::makeKey(outcome.result.fingerprint, spec.name,
                              tuningOptionsTag(base));

        // ---- DB fast path: re-validate the stored decision with one
        // compile; on success there is no search at all. ----
        if (db != nullptr) {
            if (const TuningDbEntry *entry = db->lookup(db_key)) {
                const TuningOverrides stored =
                    overridesFromEntry(cluster, *entry);
                if (stored.empty()) {
                    // A recorded "heuristic is best" is a hit too.
                    outcome.result.db_hit = true;
                    return finish(outcome);
                }
                try {
                    AStitchOptions copt = base;
                            copt.tuning = stored;
                    CompiledCluster compiled =
                        compileStitchOp(graph, cluster, spec, copt);
                    DiagnosticEngine engine;
                    const bool legal = analyzeCompiledCluster(
                        graph, cluster,
                        static_cast<const CompiledCluster &>(compiled),
                        spec, engine);
                    const double cost =
                        legal ? estimatedClusterCostUs(graph, compiled,
                                                       spec)
                              : kInfCost;
                    if (options.observer)
                        options.observer(stored, compiled, legal, cost);
                    if (legal && cost < win_bar) {
                        outcome.compiled = std::move(compiled);
                        outcome.result.tuned_cost_us = cost;
                        outcome.result.improved = true;
                        outcome.result.db_hit = true;
                        outcome.result.candidates_evaluated = 1;
                        outcome.result.decision = stored;
                        return finish(outcome);
                    }
                } catch (...) {
                    // Stale decision; fall through to a fresh search.
                }
            }
        }

        // ---- Decision sites from one diagnostics compile. ----
        StitchDiagnostics diag;
        {
            AStitchOptions dopt = base;
            dopt.tuning = TuningOverrides{};
            compileStitchOp(graph, cluster, spec, dopt, &diag);
        }
        const std::vector<Site> sites =
            enumerateSites(graph, cluster, spec, diag);

        Search search{graph,   cluster, spec,
                      base,    options, sites,
                      start,   false,   0,
                      0,       {}};
        if (options.time_budget_ms > 0.0) {
            search.has_deadline = true;
            search.deadline =
                start + std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                options.time_budget_ms));
        }
        const Decision zero(sites.size(), 0);
        search.memo.emplace(zero, heuristic_cost);

        // ---- Beam search, site by site. ----
        std::vector<BeamState> beam{BeamState{zero, heuristic_cost}};
        for (std::size_t s = 0;
             s < sites.size() && !search.budgetExhausted(); ++s) {
            std::vector<BeamState> frontier = beam;
            for (const BeamState &state : beam) {
                for (int choice = 1; choice < sites[s].numChoices();
                     ++choice) {
                    if (search.budgetExhausted())
                        break;
                    Decision next = state.decision;
                    next[s] = choice;
                    const double cost = search.evaluate(next);
                    if (cost < kInfCost)
                        frontier.push_back(
                            BeamState{std::move(next), cost});
                }
            }
            pruneBeam(frontier, options.beam_width);
            beam = std::move(frontier);
        }

        // ---- Full mode: evolutionary mutation rounds on the beam. ----
        if (options.mode == TuningMode::Full && !sites.empty()) {
            Rng rng(options.seed ^ outcome.result.fingerprint);
            for (int gen = 0; gen < options.generations &&
                              !search.budgetExhausted();
                 ++gen) {
                std::vector<BeamState> frontier = beam;
                for (const BeamState &state : beam) {
                    if (search.budgetExhausted())
                        break;
                    Decision next = state.decision;
                    const auto site = static_cast<std::size_t>(
                        rng.uniformInt(0,
                                       static_cast<std::int64_t>(
                                           sites.size()) -
                                           1));
                    next[site] = static_cast<int>(rng.uniformInt(
                        0, sites[site].numChoices() - 1));
                    const double cost = search.evaluate(next);
                    if (cost < kInfCost)
                        frontier.push_back(
                            BeamState{std::move(next), cost});
                }
                pruneBeam(frontier, options.beam_width);
                beam = std::move(frontier);
            }
        }

        outcome.result.candidates_evaluated = search.evaluated;
        outcome.result.candidates_rejected = search.rejected;

        // ---- Pick: strictly-better best, else keep the heuristic. ----
        const BeamState &best = beam.front();
        if (best.cost < win_bar && best.decision != zero) {
            AStitchOptions copt = base;
            copt.tuning = overridesFor(sites, best.decision);
            outcome.compiled =
                compileStitchOp(graph, cluster, spec, copt);
            outcome.result.tuned_cost_us = best.cost;
            outcome.result.improved = true;
            outcome.result.decision = copt.tuning;
        }

        if (db != nullptr) {
            TuningDbEntry entry;
            entry.key = db_key;
            entry.heuristic_cost_us = heuristic_cost;
            entry.tuned_cost_us = outcome.result.tuned_cost_us;
            entry.improved = outcome.result.improved;
            entryFromOverrides(cluster, outcome.result.decision, &entry);
            db->record(std::move(entry));
        }
    } catch (...) {
        // Tuning must never break a compile: fall back to the plan the
        // pipeline already produced.
        outcome.compiled = heuristic;
        outcome.result.tuned_cost_us = outcome.result.heuristic_cost_us;
        outcome.result.improved = false;
        outcome.result.decision = TuningOverrides{};
    }
    return finish(outcome);
}

} // namespace astitch
