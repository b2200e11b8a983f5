/**
 * @file
 * The pipeline determinism guarantee: the parallel per-function WPA
 * loop, the per-module codegen fan-out and every standalone parallel
 * stage (aggregation, DCFG mapping, layout, the fresh and the stale WPA)
 * must produce byte-identical results at any thread count.
 */

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "build/workflow.h"
#include "codegen/codegen.h"
#include "linker/linker.h"
#include "propeller/addr_map_index.h"
#include "propeller/profile_mapper.h"
#include "propeller/propeller.h"
#include "sched/sched.h"
#include "stale/stale.h"
#include "test_util.h"
#include "workload/workload.h"

namespace propeller {
namespace {

/** WPA artifacts and the relinked binary, at a given thread count. */
struct PipelineArtifacts
{
    std::string ccProf;
    std::string ldProf;
    std::vector<uint8_t> text;
    uint64_t entryAddress = 0;
};

PipelineArtifacts
runPipeline(unsigned jobs)
{
    workload::WorkloadConfig cfg = test::smallConfig(63);
    cfg.name = "threads";
    cfg.jobs = jobs;
    buildsys::Workflow wf(cfg);
    PipelineArtifacts out;
    out.ccProf = wf.wpa().ccProf.serialize();
    out.ldProf = wf.wpa().ldProf.serialize();
    out.text = wf.propellerBinary().text;
    out.entryAddress = wf.propellerBinary().entryAddress;
    return out;
}

TEST(ThreadingDeterminism, ArtifactsIdenticalAcrossThreadCounts)
{
    PipelineArtifacts serial = runPipeline(1);
    PipelineArtifacts parallel = runPipeline(8);

    EXPECT_EQ(serial.ccProf, parallel.ccProf);
    EXPECT_EQ(serial.ldProf, parallel.ldProf);
    EXPECT_EQ(serial.entryAddress, parallel.entryAddress);
    // The whole relinked .text, byte for byte.
    ASSERT_EQ(serial.text.size(), parallel.text.size());
    EXPECT_EQ(serial.text, parallel.text);
}

TEST(ThreadingDeterminism, LayoutIdenticalAcrossThreadCounts)
{
    // Drive the layout loop directly through the ablation entry point so
    // the comparison isolates the parallel Ext-TSP stage.  Concurrency
    // is the workflow-wide jobs setting now, so each count gets its own
    // workflow over the same seed.
    workload::WorkloadConfig cfg = test::smallConfig(64);
    cfg.name = "threads2";
    cfg.jobs = 1;
    buildsys::Workflow wf1(cfg);
    cfg.jobs = 8;
    buildsys::Workflow wf8(cfg);

    core::WpaResult wpa1, wpa8;
    linker::Executable exe1 = wf1.propellerBinaryWith({}, &wpa1);
    linker::Executable exe8 = wf8.propellerBinaryWith({}, &wpa8);

    EXPECT_EQ(wpa1.ccProf.serialize(), wpa8.ccProf.serialize());
    EXPECT_EQ(wpa1.ldProf.serialize(), wpa8.ldProf.serialize());
    // Order-independent stat sums must match exactly, including the
    // floating-point Ext-TSP score (merged in function order).
    EXPECT_EQ(wpa1.stats.extTsp.finalScore, wpa8.stats.extTsp.finalScore);
    EXPECT_EQ(exe1.text, exe8.text);
}

TEST(ThreadingDeterminism, ReferenceSolverArtifactsIdenticalAtAnyThreads)
{
    // The acceptance gate for the incremental Ext-TSP solver: the lazy
    // heap and the reference full-scan retrieval must emit byte-identical
    // cc_prof/ld_prof at 1 and at 8 threads (4 combinations total).
    workload::WorkloadConfig cfg = test::smallConfig(65);
    cfg.name = "threads3";

    std::string cc_base, ld_base;
    for (unsigned threads : {1u, 8u}) {
        cfg.jobs = threads;
        buildsys::Workflow wf(cfg);
        for (bool reference : {false, true}) {
            core::LayoutOptions opts;
            opts.referenceSolver = reference;
            core::WpaResult wpa;
            wf.propellerBinaryWith(opts, &wpa);
            std::string cc = wpa.ccProf.serialize();
            std::string ld = wpa.ldProf.serialize();
            if (cc_base.empty()) {
                cc_base = cc;
                ld_base = ld;
                continue;
            }
            EXPECT_EQ(cc, cc_base)
                << "threads=" << threads << " reference=" << reference;
            EXPECT_EQ(ld, ld_base)
                << "threads=" << threads << " reference=" << reference;
        }
    }
}

/** The aggregation maps, in iteration order, plus the event total. */
std::string
dumpAggregate(const profile::AggregatedProfile &agg)
{
    std::ostringstream out;
    out << "total " << agg.totalBranchEvents << "\nbranches";
    for (const auto &[key, count] : agg.branches)
        out << ' ' << key << ':' << count;
    out << "\nranges";
    for (const auto &[key, count] : agg.ranges)
        out << ' ' << key << ':' << count;
    return out.str();
}

/** Every field of a DCFG, in order. */
std::string
dumpDcfg(const core::WholeProgramDcfg &dcfg)
{
    std::ostringstream out;
    for (const core::FunctionDcfg &fn : dcfg.functions) {
        out << fn.function << " entry " << fn.entryNode << "\n nodes";
        for (const core::DcfgNode &n : fn.nodes)
            out << ' ' << n.bbId << '/' << n.size << '/' << n.freq << '/'
                << int(n.flags);
        out << "\n edges";
        for (const core::DcfgEdge &e : fn.edges)
            out << ' ' << e.fromNode << '>' << e.toNode << ':' << e.weight
                << '/' << int(e.kind);
        out << '\n';
    }
    for (const core::CallEdge &c : dcfg.callEdges)
        out << "call " << c.callerDcfg << '.' << c.callerNode << '>'
            << c.calleeDcfg << ':' << c.weight << '\n';
    return out.str();
}

std::string
dumpMapperStats(const core::MapperStats &s)
{
    std::ostringstream out;
    out << s.branchEdges << ' ' << s.fallThroughEdges << ' ' << s.callEdges
        << ' ' << s.returnRecords << ' ' << s.unmappedRecords << ' '
        << s.rangeWalkTruncated;
    return out.str();
}

/** Artifacts and every stat of one WPA result. */
std::string
dumpWpa(const core::WpaResult &wpa)
{
    std::ostringstream out;
    out.precision(17);
    const core::WpaStats &s = wpa.stats;
    const core::ExtTspStats &x = s.extTsp;
    out << wpa.ccProf.serialize() << wpa.ldProf.serialize() << "hot";
    for (const auto &name : wpa.hotFunctions)
        out << ' ' << name;
    out << "\npeak " << s.peakMemory << " profile " << s.profileBytes
        << " dcfg " << s.dcfgFootprint << " index " << s.indexFootprint
        << " hot " << s.hotFunctions << " quarantined " << s.quarantined
        << " mismatch " << s.profileMismatch << "\nmapper "
        << dumpMapperStats(s.mapper) << "\nexttsp " << x.merges << ' '
        << x.candidateEvals << ' ' << x.retrievals << ' ' << x.heapPops
        << ' ' << x.staleSkips << ' ' << x.finalScore;
    for (const auto &name : s.quarantinedFunctions)
        out << ' ' << name;
    return out.str();
}

/** Everything the standalone parallel entry points return, at @p jobs. */
std::string
standaloneStages(unsigned jobs, const linker::Executable &pm,
                 const linker::Executable &drifted,
                 const profile::Profile &prof)
{
    std::ostringstream out;
    out.precision(17);
    // Small shards, so the aggregation fans out even on a small profile.
    for (uint32_t per_shard : {64u, 4096u}) {
        profile::AggregationOptions ao;
        ao.threads = jobs;
        ao.samplesPerShard = per_shard;
        out << "aggregate/" << per_shard << '\n'
            << dumpAggregate(profile::aggregate(prof, ao)) << '\n';
    }

    profile::AggregationOptions ao;
    ao.threads = jobs;
    profile::AggregatedProfile agg = profile::aggregate(prof, ao);
    core::AddrMapIndex index(pm);
    core::MapperStats mstats;
    core::WholeProgramDcfg dcfg = core::buildDcfg(agg, index, &mstats, jobs);
    out << "dcfg\n" << dumpDcfg(dcfg) << dumpMapperStats(mstats) << '\n';

    core::LayoutResult layout = core::computeLayout(dcfg, index, {}, jobs);
    out << "layout\n"
        << layout.ccProf.serialize() << layout.ldProf.serialize()
        << layout.extTspStats.finalScore << '\n';

    out << "wpa\n"
        << dumpWpa(core::runWholeProgramAnalysis(pm, prof, {}, jobs))
        << '\n';

    stale::StaleWpaResult swr =
        stale::runStaleWholeProgramAnalysis(drifted, pm, prof, {}, jobs);
    const stale::StaleMatchStats &m = swr.match;
    const stale::InferenceStats &inf = swr.inference;
    out << "stale\n"
        << dumpWpa(swr.wpa) << "\nmatch " << m.functionsTotal << ' '
        << m.functionsIdentical << ' ' << m.functionsMatched << ' '
        << m.functionsDropped << ' ' << m.blocksTotal << ' '
        << m.blocksExact << ' ' << m.blocksAnchor << ' ' << m.blocksDropped
        << ' ' << m.weightTotal << ' ' << m.weightMatched << "\ninfer "
        << inf.functionsInferred << ' ' << inf.nodesAdded << ' '
        << inf.edgesRerouted << ' ' << inf.edgesAdded << ' '
        << inf.weightPushed << '\n';
    return out.str();
}

TEST(ThreadingDeterminism, StandaloneStagesIdenticalAcrossThreadCounts)
{
    // The entry points outside the relink graph — sharded aggregation,
    // DCFG mapping, layout, the standalone and the stale WPA — fan out
    // with sched::parallelFor or on their own stage graph; each must
    // return the same result, down to the aggregation maps' iteration
    // order and the WPA's modelled peak memory, at any thread count.
    workload::WorkloadConfig cfg = test::smallConfig(66);
    cfg.name = "threads4";
    cfg.jobs = 1;
    buildsys::Workflow wf(cfg);
    const linker::Executable &pm = wf.metadataBinary();
    const profile::Profile &prof = wf.profile();

    // A drifted build of the same program: the stale WPA's target.
    ir::Program drifted_prog = workload::generate(cfg);
    workload::applyDrift(drifted_prog, {5, 0.10});
    cfg.name = "threads4.drifted";
    buildsys::Workflow drifted_wf(cfg);
    drifted_wf.overrideProgram(std::move(drifted_prog));
    const linker::Executable &drifted = drifted_wf.metadataBinary();

    const std::string serial = standaloneStages(1, pm, drifted, prof);
    ASSERT_NE(serial.find("call "), std::string::npos)
        << "the DCFG should carry call edges";
    for (unsigned jobs : {2u, 8u})
        EXPECT_EQ(standaloneStages(jobs, pm, drifted, prof), serial)
            << "jobs=" << jobs;
}

TEST(ThreadingDeterminism, LinkIdenticalAcrossThreadCounts)
{
    // The PM link prepares its objects on sched::parallelFor: the result
    // must equal the serial link in every field, stats included, and the
    // workflow's metadata binary must not depend on the thread count.
    for (const char *app : {"clang", "bigtable"}) {
        workload::WorkloadConfig cfg = workload::configByName(app);
        ir::Program program = workload::generate(cfg);
        codegen::Options copts;
        copts.emitAddrMapSection = true;
        std::vector<elf::ObjectFile> objects =
            codegen::compileProgram(program, copts);
        linker::Options opts;
        opts.outputName = cfg.name + ".pm";
        opts.entrySymbol = program.entryFunction;
        opts.hugePagesText = cfg.hugePages;
        linker::LinkStats serial_stats;
        linker::Executable serial =
            linker::link(objects, opts, &serial_stats);

        std::optional<linker::Executable> pm;
        for (unsigned jobs : {1u, 2u, 8u}) {
            std::vector<linker::PreparedObject> prepared(objects.size());
            sched::parallelFor(jobs, objects.size(), [&](size_t i) {
                prepared[i] = linker::prepareObject(objects[i], opts);
            });
            linker::LinkStats stats;
            linker::Executable exe = linker::link(prepared, opts, &stats);
            EXPECT_TRUE(exe == serial) << app << " jobs=" << jobs;
            EXPECT_TRUE(stats == serial_stats) << app << " jobs=" << jobs;

            cfg.jobs = jobs;
            buildsys::Workflow wf(cfg);
            if (!pm)
                pm = wf.metadataBinary();
            EXPECT_TRUE(wf.metadataBinary() == *pm)
                << app << " jobs=" << jobs;
        }
        EXPECT_TRUE(*pm == serial) << app;
    }
}

} // namespace
} // namespace propeller
