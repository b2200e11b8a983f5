#include "propeller/propeller.h"

#include <algorithm>
#include <optional>
#include <string>

#include "propeller/addr_map_index.h"
#include "support/hash.h"

namespace propeller::core {

/**
 * Stage state shared by the graph's tasks.  The memory-meter charge
 * sequence below is the same one a serial run performs, in the same
 * order, so peakMemory stays bit-identical no matter how the middle
 * stages are scheduled.
 */
struct WpaPipeline::Impl
{
    const linker::Executable &exe;
    const profile::Profile &prof;
    LayoutOptions opts;
    unsigned jobs;

    MemoryMeter local;
    WpaResult result;
    std::optional<AddrMapIndex> index;
    std::optional<WholeProgramDcfg> dcfg;
    std::optional<LayoutContext> layout;
    uint64_t hotNodes = 0;

    // Ingest state (alive between prepare() and applyDcfg()).
    profile::AggregationOptions aggOpts;
    std::vector<profile::AggregatedProfile> aggSlots;
    std::optional<profile::AggregatedProfile> agg;
    std::optional<DcfgMapper> mapper;

    // Injected DCFG (fleet service seam): consumed by applyDcfg() in
    // place of the mapper's output.
    std::optional<WholeProgramDcfg> pendingDcfg;

    // Graph state: the stage plan, the apply task (the layout tasks it
    // adds depend on it) and the layout slots (alive between dcfg.apply
    // and wpa.merge).
    StagePlan stages;
    sched::TaskId applyTask = sched::kInvalidTask;
    std::vector<sched::TaskId> layoutTasks;
    std::vector<FunctionLayout> slots;
    LdProfile order;

    Impl(const linker::Executable &e, const profile::Profile &p,
         const LayoutOptions &o, unsigned j)
        : exe(e), prof(p), opts(o), jobs(j)
    {
        aggOpts.threads = jobs;
    }

    void
    prepare()
    {
        // Identity check: a profile collected on a different build must
        // not be silently mis-mapped by address.  (Profiles without
        // identity — e.g. hand-built in tests — are accepted as-is.)
        result.stats.profileMismatch =
            prof.binaryHash != 0 && prof.binaryHash != exe.identityHash;

        // Reading and decoding the raw profile (chunked reading could
        // lower this, as the paper notes in section 5.1).
        result.stats.profileBytes = prof.sizeInBytes();
        local.charge(result.stats.profileBytes * 2);
        aggSlots.resize(profile::aggregationShardCount(prof, aggOpts));
    }

    void
    mergeAggregation()
    {
        // Serial shard-order fold: the aggregation maps' iteration
        // order — which everything downstream consumes — depends only
        // on the profile and the shard size, never the schedule.
        agg.emplace(profile::mergeAggregationShards(aggSlots));
        aggSlots.clear();
        aggSlots.shrink_to_fit();
        local.charge((agg->branches.size() + agg->ranges.size()) * 48);
    }

    void
    buildIndex()
    {
        // The BB address map interval index (sanitizing construction:
        // functions with inconsistent metadata drop out here).
        // Independent of the aggregation shards, so the schedule may
        // overlap the two; the meter's charges are monotonic within the
        // build, so the recorded peak is order independent.
        index.emplace(exe);
        result.stats.indexFootprint = index->footprint();
        result.stats.quarantinedFunctions = index->quarantined();
        result.stats.quarantined =
            static_cast<uint32_t>(index->quarantined().size());
        local.charge(result.stats.indexFootprint);
    }

    void
    applyDcfg()
    {
        // The whole-program DCFG: proportional to *sampled* code only —
        // this is the design property that bounds Phase 3 memory
        // (section 3.5).
        if (pendingDcfg) {
            dcfg.emplace(std::move(*pendingDcfg));
            pendingDcfg.reset();
        } else {
            dcfg.emplace(mapper->apply(&result.stats.mapper));
        }
        mapper.reset();
        agg.reset();
        result.stats.dcfgFootprint = dcfg->footprint();
        local.charge(result.stats.dcfgFootprint);

        for (const auto &fn : dcfg->functions)
            hotNodes += fn.nodes.size();
        if (!opts.interProcedural)
            layout.emplace(*dcfg, *index, opts);
    }

    uint64_t
    layoutFingerprint(size_t f) const
    {
        const FunctionDcfg &fn = dcfg->functions[f];
        return layoutMemoFingerprint(fn, *index,
                                     index->findFunction(fn.function));
    }

    uint64_t
    layoutInputDigest(size_t f) const
    {
        const FunctionDcfg &fn = dcfg->functions[f];
        return core::layoutInputDigest(fn, *index,
                                       index->findFunction(fn.function));
    }

    /** wpa.merge: the per-function slots and the global order, merged
     *  in function order (or the monolithic inter-procedural layout). */
    WpaResult
    merge(MemoryMeter *meter)
    {
        // Layout computation working set (chains, pairs, heap).  The
        // charge brackets the merge as it brackets a whole computeLayout
        // call; nothing is released between ingest and here.
        LayoutResult merged;
        {
            ScopedCharge working(local, hotNodes * 160);
            merged = opts.interProcedural
                         ? computeLayout(*dcfg, *index, opts, jobs)
                         : layout->merge(std::move(slots),
                                         std::move(order));
        }
        result.ccProf = std::move(merged.ccProf);
        result.ldProf = std::move(merged.ldProf);
        result.hotFunctions = std::move(merged.hotFunctions);
        result.stats.extTsp = merged.extTspStats;
        result.stats.hotFunctions =
            static_cast<uint32_t>(result.hotFunctions.size());
        result.stats.peakMemory = local.peak();
        if (meter) {
            meter->charge(result.stats.peakMemory);
            meter->release(result.stats.peakMemory);
        }
        return std::move(result);
    }
};

WpaPipeline::WpaPipeline(const linker::Executable &metadata_exe,
                         const profile::Profile &prof,
                         const LayoutOptions &opts, unsigned jobs)
    : impl_(std::make_unique<Impl>(metadata_exe, prof, opts, jobs))
{
}

WpaPipeline::~WpaPipeline() = default;

WpaPipeline::StageTasks
WpaPipeline::addStages(sched::TaskGraph &graph, StagePlan plan,
                       std::optional<WpaResult> &out, MemoryMeter *meter)
{
    Impl &im = *impl_;
    im.stages = std::move(plan);
    // Shard counts are pure functions of the profile and the options,
    // never of the schedule, and so is every modelled cost below.
    const size_t aggShards =
        profile::aggregationShardCount(im.prof, im.aggOpts);
    const size_t resolveShards =
        std::max<size_t>(im.stages.resolveShards, 1);
    const double dcfgCost = im.stages.profileCostSec;

    sched::TaskId prepare = graph.add([&im] { im.prepare(); },
                                      {"dcfg.prepare", "phase3.wpa", 0.0});
    std::vector<sched::TaskId> aggTask(aggShards);
    for (size_t s = 0; s < aggShards; ++s) {
        aggTask[s] = graph.add(
            [&im, s] {
                profile::aggregateShardInto(im.prof, im.aggOpts, s,
                                            im.aggSlots[s]);
            },
            {"agg#" + std::to_string(s), "phase3.wpa",
             dcfgCost * 0.002 / static_cast<double>(aggShards)},
            {prepare});
    }
    sched::TaskId aggMerge =
        graph.add([&im] { im.mergeAggregation(); },
                  {"agg.merge", "phase3.wpa", 0.0}, aggTask);
    sched::TaskId index =
        graph.add([&im] { im.buildIndex(); },
                  {"addrmap.index", "phase3.wpa", dcfgCost * 0.010},
                  {prepare});
    sched::TaskId mapSetup =
        graph.add([&im] { im.mapper.emplace(*im.agg, *im.index); },
                  {"map.setup", "phase3.wpa", 0.0}, {aggMerge, index});
    std::vector<sched::TaskId> resolveTask(resolveShards);
    for (size_t k = 0; k < resolveShards; ++k) {
        resolveTask[k] = graph.add(
            [&im, k, resolveShards] {
                im.mapper->resolveShard(k, resolveShards);
            },
            {"resolve#" + std::to_string(k), "phase3.wpa",
             dcfgCost * 0.983 / static_cast<double>(resolveShards)},
            {mapSetup});
    }

    StageTasks ids;
    sched::TaskId order = graph.add(
        [&im] {
            if (im.layout)
                im.order = im.layout->globalOrder();
        },
        {"order", "phase3.wpa", 0.0});
    ids.merge = graph.add([&im, &out, meter] { out = im.merge(meter); },
                          {"wpa.merge", "phase3.wpa", 0.0}, {order});
    ids.apply = graph.add(
        [&im, &graph, order, merge = ids.merge] {
            im.applyDcfg();
            const auto &fns = im.dcfg->functions;
            // hfsort's cost scales with the hot functions known only now.
            graph.setCost(order, im.stages.hotFunctionCostSec *
                                     static_cast<double>(fns.size()) *
                                     0.1);
            if (!im.layout)
                return;
            im.slots.resize(fns.size());
            im.layoutTasks.resize(fns.size());
            for (size_t f = 0; f < fns.size(); ++f) {
                double share =
                    im.hotNodes == 0
                        ? 0.0
                        : static_cast<double>(fns[f].nodes.size()) /
                              static_cast<double>(im.hotNodes);
                im.layoutTasks[f] = graph.add(
                    [&im, f] {
                        im.slots[f] =
                            im.stages.layout
                                ? im.stages.layout(f, im.layoutTasks[f])
                                : im.layout->layoutFunction(f);
                    },
                    {"layout:" + fns[f].function, "phase3.wpa",
                     im.stages.hotFunctionCostSec *
                         static_cast<double>(fns.size()) * share},
                    {im.applyTask});
                graph.addEdge(im.layoutTasks[f], merge);
            }
            if (im.stages.onLayoutTasks)
                im.stages.onLayoutTasks(im.layoutTasks);
        },
        {"dcfg.apply", "phase3.wpa", dcfgCost * 0.005}, resolveTask);
    im.applyTask = ids.apply;
    graph.addEdge(ids.apply, order);
    return ids;
}

void
WpaPipeline::overrideDcfg(WholeProgramDcfg dcfg)
{
    impl_->pendingDcfg.emplace(std::move(dcfg));
}

uint64_t
WpaPipeline::layoutFingerprint(size_t f) const
{
    return impl_->layoutFingerprint(f);
}

uint64_t
WpaPipeline::layoutInputDigest(size_t f) const
{
    return impl_->layoutInputDigest(f);
}

const WholeProgramDcfg &
WpaPipeline::dcfg() const
{
    return *impl_->dcfg;
}

WholeProgramDcfg
WpaPipeline::releaseDcfg()
{
    // The layout context reads the DCFG; it goes first.
    impl_->layout.reset();
    WholeProgramDcfg out = std::move(*impl_->dcfg);
    impl_->dcfg.reset();
    return out;
}

FunctionLayout
WpaPipeline::layoutFunction(size_t f) const
{
    return impl_->layout->layoutFunction(f);
}

WpaResult
runWholeProgramAnalysis(const linker::Executable &metadata_exe,
                        const profile::Profile &prof,
                        const LayoutOptions &opts, unsigned jobs,
                        MemoryMeter *meter)
{
    // Ingest and the per-function layouts on one small graph — the same
    // stages the relink graph runs, so the result is byte-identical.
    WpaPipeline pipeline(metadata_exe, prof, opts, jobs);
    sched::TaskGraph graph;
    std::optional<WpaResult> result;
    WpaPipeline::StagePlan plan;
    plan.resolveShards = sched::resolveThreadCount(jobs) * 4;
    pipeline.addStages(graph, std::move(plan), result, meter);
    sched::Scheduler({jobs, 1}).run(graph);
    return std::move(*result);
}

} // namespace propeller::core
