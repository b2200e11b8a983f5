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
#include "isa/isa.h"
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

/** What one link returns: the executable or the error, and its stats. */
struct LinkOutcome
{
    std::optional<linker::Executable> exe;
    std::string error;
    linker::LinkStats stats;
};

/** Prepare and link @p objects, both at @p threads threads. */
LinkOutcome
linkAt(const std::vector<elf::ObjectFile> &objects, linker::Options opts,
       unsigned threads)
{
    opts.threads = threads;
    std::vector<linker::PreparedObject> prepared(objects.size());
    sched::parallelFor(threads, objects.size(), [&](size_t i) {
        prepared[i] = linker::prepareObject(objects[i], opts);
    });
    LinkOutcome out;
    auto exe = linker::linkChecked(prepared, opts, &out.stats);
    if (exe.ok())
        out.exe = std::move(exe).value();
    else
        out.error = exe.status().toString();
    return out;
}

/**
 * Link @p objects at threads {1, 2, 4, 8}: every field of the executable
 * and of the stats, or the error message, must equal threads=1.
 * Returns the threads=1 outcome.
 */
LinkOutcome
expectLinkIdenticalAcrossThreads(const std::vector<elf::ObjectFile> &objects,
                                 const linker::Options &opts,
                                 const std::string &what)
{
    LinkOutcome serial = linkAt(objects, opts, 1);
    for (unsigned threads : {2u, 4u, 8u}) {
        const std::string tag = what + " threads=" + std::to_string(threads);
        LinkOutcome out = linkAt(objects, opts, threads);
        EXPECT_EQ(out.error, serial.error) << tag;
        EXPECT_TRUE(out.stats == serial.stats) << tag;
        EXPECT_EQ(out.exe.has_value(), serial.exe.has_value()) << tag;
        if (!serial.exe || !out.exe)
            continue;
        // Field by field first, so a failure names the field.
        const linker::Executable &a = *out.exe;
        const linker::Executable &b = *serial.exe;
        EXPECT_EQ(a.text, b.text) << tag;
        EXPECT_EQ(a.identityHash, b.identityHash) << tag;
        EXPECT_EQ(a.entryAddress, b.entryAddress) << tag;
        EXPECT_EQ(a.symbols, b.symbols) << tag;
        EXPECT_EQ(a.bbAddrMap, b.bbAddrMap) << tag;
        EXPECT_EQ(a.integrityChecks, b.integrityChecks) << tag;
        EXPECT_EQ(a.frames, b.frames) << tag;
        EXPECT_EQ(a.sizes, b.sizes) << tag;
        EXPECT_TRUE(a == b) << tag;
    }
    return serial;
}

TEST(ThreadingDeterminism, LinkIdenticalAcrossThreadCounts)
{
    // Both the preparation and the link's own passes (site resolution,
    // relaxation, the overflow scan, emission, the BB-map fill, FDE
    // coverage and integrity hashes) run on up to `threads` threads: the
    // result, stats and errors included, must equal the serial link's,
    // and the workflow's metadata binary must not depend on --jobs.
    for (const char *app : {"clang", "bigtable", "search"}) {
        workload::WorkloadConfig cfg = workload::configByName(app);
        buildsys::Workflow wf(cfg);
        const ir::Program &program = wf.program();

        codegen::Options phase2;
        phase2.emitAddrMapSection = true;
        codegen::ClusterMap clusters = wf.wpa().ccProf.clusters;
        codegen::sanitizeClusterMap(program, clusters);
        codegen::Options phase4 = phase2;
        phase4.bbSections = codegen::BbSectionsMode::Clusters;
        phase4.clusters = &clusters;

        linker::Options opts;
        opts.outputName = cfg.name + ".pm";
        opts.entrySymbol = program.entryFunction;
        opts.hugePagesText = cfg.hugePages;
        const std::vector<elf::ObjectFile> pm_objects =
            codegen::compileProgram(program, phase2);
        LinkOutcome pm = expectLinkIdenticalAcrossThreads(
            pm_objects, opts, std::string(app) + " pm");
        ASSERT_TRUE(pm.exe) << app << ": " << pm.error;
        EXPECT_TRUE(*pm.exe == wf.metadataBinary()) << app;

        linker::Options ordered = opts;
        ordered.outputName = cfg.name + ".po";
        ordered.symbolOrder = wf.wpa().ldProf.symbolOrder;
        const std::vector<elf::ObjectFile> po_objects =
            codegen::compileProgram(program, phase4);
        LinkOutcome po = expectLinkIdenticalAcrossThreads(
            po_objects, ordered, std::string(app) + " po");
        ASSERT_TRUE(po.exe) << app << ": " << po.error;
        EXPECT_GT(po.stats.branchesShrunk, 0u) << app;

        for (unsigned jobs : {2u, 8u}) {
            cfg.jobs = jobs;
            buildsys::Workflow par(cfg);
            EXPECT_TRUE(par.metadataBinary() == *pm.exe)
                << app << " jobs=" << jobs;
        }
        if (std::string(app) != "clang")
            continue;

        // Degraded links: a function quarantined on overflow, and one
        // object's maps failing their checksum.
        linker::Options narrow = test::quarantineOptions(pm_objects, opts);
        ASSERT_FALSE(narrow.symbolOrder.empty());
        LinkOutcome quarantine = expectLinkIdenticalAcrossThreads(
            pm_objects, narrow, "quarantine");
        EXPECT_GT(quarantine.stats.quarantinedFunctions, 0u);

        std::vector<elf::ObjectFile> flipped = po_objects;
        int map = flipped[1].findSection(".bb_addr_map");
        ASSERT_GE(map, 0);
        flipped[1].sections[map].bytes[4] ^= 0x10;
        LinkOutcome rejected = expectLinkIdenticalAcrossThreads(
            flipped, ordered, "rejected maps");
        EXPECT_EQ(rejected.stats.addrMapsRejected, 1u);

        // First errors: two objects are broken, and the earlier one in
        // input order must be reported at every thread count.
        const size_t early = 1, late = po_objects.size() - 2;
        auto firstSite = [](elf::ObjectFile &obj,
                            bool call) -> elf::BranchSite * {
            for (auto &sec : obj.sections)
                for (auto &piece : sec.pieces)
                    if (piece.site &&
                        (piece.site->op == isa::Opcode::Call) == call)
                        return &*piece.site;
            return nullptr;
        };
        std::vector<elf::ObjectFile> unresolved = po_objects;
        for (size_t o : {early, late}) {
            elf::BranchSite *site = firstSite(unresolved[o], true);
            ASSERT_NE(site, nullptr) << o;
            site->targetSymbol = "ghost_" + std::to_string(o);
        }
        LinkOutcome ghost = expectLinkIdenticalAcrossThreads(
            unresolved, ordered, "unresolved symbol");
        EXPECT_NE(ghost.error.find("unresolved symbol ghost_1 "),
                  std::string::npos)
            << ghost.error;

        std::vector<elf::ObjectFile> unmapped = po_objects;
        for (size_t o : {early, late}) {
            elf::BranchSite *site = firstSite(unmapped[o], false);
            ASSERT_NE(site, nullptr) << o;
            site->targetBb = static_cast<uint32_t>(4000 + o);
        }
        LinkOutcome hole = expectLinkIdenticalAcrossThreads(
            unmapped, ordered, "unmapped block");
        EXPECT_NE(hole.error.find("branch to unmapped block #4001 "),
                  std::string::npos)
            << hole.error;
    }
}

} // namespace
} // namespace propeller
