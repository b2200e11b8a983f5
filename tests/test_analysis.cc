/**
 * @file
 * Tests for the post-link static verifier (src/analysis): the
 * diagnostics engine, zero false positives on clean end-to-end builds at
 * multiple thread counts, 100% detection of seeded defect classes, the
 * pre-link directive and flow lints, and the workflow phase-5 wiring.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/mutate.h"
#include "analysis/verifier.h"
#include "build/workflow.h"
#include "propeller/addr_map_index.h"
#include "propeller/profile_mapper.h"
#include "sched/sched.h"
#include "test_util.h"
#include "workload/workload.h"

namespace propeller::analysis {
namespace {

/** smallConfig plus integrity checks, so every defect class has sites. */
workload::WorkloadConfig
verifyConfig(unsigned jobs = 1)
{
    workload::WorkloadConfig cfg = test::smallConfig();
    cfg.integrityCheckedFunctions = 2;
    cfg.jobs = jobs;
    return cfg;
}

TEST(DiagnosticEngine, CountsRendersAndSuppresses)
{
    DiagnosticEngine engine;
    EXPECT_TRUE(engine.clean());
    engine.report(CheckId::PV004, Severity::Error, "fn_a", 0x4010,
                  "invalid opcode");
    engine.report(CheckId::PV016, Severity::Warning, "fn_b", 0,
                  "flow imbalance");
    engine.report(CheckId::PV001, Severity::Note, "", 0, "fyi");
    EXPECT_EQ(engine.errorCount(), 1u);
    EXPECT_EQ(engine.warningCount(), 1u);
    EXPECT_EQ(engine.noteCount(), 1u);
    EXPECT_FALSE(engine.clean());

    std::string text = engine.renderText();
    EXPECT_NE(text.find("error[PV004] fn_a@0x4010: invalid opcode"),
              std::string::npos);
    EXPECT_NE(text.find("1 error(s), 1 warning(s), 1 note(s)"),
              std::string::npos);

    std::string json = engine.renderJson();
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"PV004\""), std::string::npos);

    std::vector<std::string> affected = engine.affectedFunctions();
    ASSERT_EQ(affected.size(), 2u);
    EXPECT_EQ(affected[0], "fn_a");
    EXPECT_EQ(affected[1], "fn_b");
}

TEST(DiagnosticEngine, SuppressedFindingsAreCountedNotStored)
{
    DiagnosticEngine engine;
    ASSERT_TRUE(engine.parseSuppressions("PV004,PV011"));
    engine.report(CheckId::PV004, Severity::Error, "fn", 0, "muted");
    engine.report(CheckId::PV005, Severity::Error, "fn", 0, "kept");
    EXPECT_EQ(engine.suppressedCount(), 1u);
    EXPECT_EQ(engine.errorCount(), 1u);
    ASSERT_EQ(engine.diagnostics().size(), 1u);
    EXPECT_EQ(engine.diagnostics()[0].id, CheckId::PV005);

    DiagnosticEngine bad;
    EXPECT_FALSE(bad.parseSuppressions("PV004,PV999"));
    EXPECT_FALSE(bad.parseSuppressions("bogus"));
    EXPECT_TRUE(bad.parseSuppressions(""));
}

TEST(DiagnosticEngine, CheckIdsRoundTrip)
{
    for (uint16_t i = 1; i <= 16; ++i) {
        CheckId id = static_cast<CheckId>(i);
        CheckId parsed;
        ASSERT_TRUE(parseCheckId(checkName(id), parsed)) << checkName(id);
        EXPECT_EQ(parsed, id);
        EXPECT_NE(std::string(checkTitle(id)), "");
    }
}

/** The core no-false-positives gate: clean builds verify clean. */
TEST(Verifier, CleanWorkflowHasZeroDiagnostics)
{
    for (unsigned jobs : {1u, 8u}) {
        buildsys::Workflow wf(verifyConfig(jobs));
        const VerifyReport &rep = wf.verifyReport();
        EXPECT_TRUE(rep.clean())
            << "jobs=" << jobs << "\n"
            << rep.engine.renderText();
        EXPECT_EQ(rep.engine.noteCount(), 0u);
        EXPECT_GT(rep.functionsChecked, 0u);
        EXPECT_GT(rep.instructionsDecoded, 0u);

        // The twin the verifier ran over is byte-identical to PO.
        EXPECT_EQ(wf.verifiedBinary().text, wf.propellerBinary().text);
        EXPECT_FALSE(wf.verifiedBinary().bbAddrMap.empty());

        // Phase 5 is recorded like any other phase.
        ASSERT_TRUE(wf.hasReport("phase5.verify"));
        const buildsys::PhaseReport &pr = wf.report("phase5.verify");
        EXPECT_EQ(pr.quarantined, 0u);
        EXPECT_TRUE(pr.failures.empty());
        EXPECT_GT(pr.makespanSec, 0.0);
    }
}

TEST(Verifier, MetadataBinaryAlsoVerifiesClean)
{
    buildsys::Workflow wf(verifyConfig());
    VerifyOptions opts;
    VerifyReport rep = verifyExecutable(wf.metadataBinary(), opts);
    EXPECT_TRUE(rep.clean()) << rep.engine.renderText();
}

/** Every defect class must be caught by exactly the paired check. */
TEST(Verifier, DetectsEverySeededDefectClass)
{
    buildsys::Workflow wf(verifyConfig());
    ASSERT_TRUE(wf.verifyReport().clean());
    const linker::Executable &twin = wf.verifiedBinary();
    profile::AggregatedProfile agg = profile::aggregate(wf.profile());
    core::AddrMapIndex index(wf.metadataBinary());

    for (size_t c = 0; c < kDefectClassCount; ++c) {
        DefectClass cls = allDefectClasses()[c];
        CheckId want = expectedCheck(cls);
        for (uint64_t seed = 1; seed <= 2; ++seed) {
            linker::Executable exe = twin;
            core::CcProfile cc = wf.wpa().ccProf;
            core::LdProfile ld = wf.wpa().ldProf;
            core::WholeProgramDcfg dcfg = core::buildDcfg(agg, index);
            MutationTarget target{&exe, &cc, &ld, &dcfg};
            std::string desc = injectDefect(cls, seed, target);
            ASSERT_NE(desc, "") << defectName(cls) << " seed " << seed
                                << ": no eligible site";

            VerifyOptions opts;
            opts.expectedOrder = &ld;
            VerifyReport rep = verifyExecutable(exe, opts);
            rep.merge(
                lintDirectives(cc, ld, wf.metadataBinary(), opts));
            rep.merge(lintProfileFlow(dcfg, opts));

            bool hit = false;
            for (const auto &d : rep.engine.diagnostics())
                hit = hit || d.id == want;
            EXPECT_TRUE(hit)
                << defectName(cls) << " seed " << seed << " [" << desc
                << "] expected " << checkName(want) << ", got:\n"
                << rep.engine.renderText();
        }
    }
}

TEST(Verifier, InjectionIsDeterministicPerSeed)
{
    buildsys::Workflow wf(verifyConfig());
    const linker::Executable &twin = wf.verifiedBinary();
    for (DefectClass cls :
         {DefectClass::BranchDisplacement, DefectClass::EmbeddedData}) {
        linker::Executable a = twin;
        linker::Executable b = twin;
        MutationTarget ta{&a, nullptr, nullptr, nullptr};
        MutationTarget tb{&b, nullptr, nullptr, nullptr};
        EXPECT_EQ(injectDefect(cls, 9, ta), injectDefect(cls, 9, tb));
        EXPECT_EQ(a.text, b.text);
    }
}

TEST(Verifier, SuppressionMutesButCounts)
{
    buildsys::Workflow wf(verifyConfig());
    linker::Executable exe = wf.verifiedBinary();
    MutationTarget target{&exe, nullptr, nullptr, nullptr};
    ASSERT_NE(injectDefect(DefectClass::EmbeddedData, 1, target), "");

    VerifyOptions opts;
    opts.suppress = "PV004";
    VerifyReport rep = verifyExecutable(exe, opts);
    EXPECT_TRUE(rep.clean()) << rep.engine.renderText();
    EXPECT_GT(rep.engine.suppressedCount(), 0u);
}

TEST(LintDirectives, RejectsWhatCodegenWouldQuarantine)
{
    buildsys::Workflow wf(verifyConfig());
    const linker::Executable &pm = wf.metadataBinary();
    const core::WpaResult &wpa = wf.wpa();
    ASSERT_FALSE(wpa.ccProf.clusters.empty());

    // The canonical artifacts lint clean.
    {
        VerifyReport rep =
            lintDirectives(wpa.ccProf, wpa.ldProf, pm, {});
        EXPECT_TRUE(rep.clean()) << rep.engine.renderText();
    }

    auto expectLint = [&](const core::CcProfile &cc,
                          const core::LdProfile &ld, CheckId want,
                          const char *what) {
        VerifyReport rep = lintDirectives(cc, ld, pm, {});
        bool hit = false;
        for (const auto &d : rep.engine.diagnostics())
            hit = hit || d.id == want;
        EXPECT_TRUE(hit) << what << ": expected " << checkName(want)
                         << ", got:\n"
                         << rep.engine.renderText();
    };

    // PV013 variants.
    {
        core::CcProfile cc = wpa.ccProf;
        cc.clusters.begin()->second.clusters[0].push_back(0xDEAD);
        expectLint(cc, wpa.ldProf, CheckId::PV013, "unknown block id");
    }
    {
        core::CcProfile cc = wpa.ccProf;
        auto &fc = cc.clusters.begin()->second;
        fc.clusters[0].push_back(fc.clusters[0][0]);
        expectLint(cc, wpa.ldProf, CheckId::PV013, "duplicate block id");
    }
    {
        core::CcProfile cc = wpa.ccProf;
        codegen::ClusterSpec orphan;
        orphan.clusters = {{0}};
        cc.clusters["no_such_function"] = orphan;
        expectLint(cc, wpa.ldProf, CheckId::PV013, "unknown function");
    }
    {
        core::CcProfile cc = wpa.ccProf;
        cc.clusters.begin()->second.clusters.clear();
        expectLint(cc, wpa.ldProf, CheckId::PV013, "no clusters");
    }

    // PV014 variants.
    {
        core::LdProfile ld = wpa.ldProf;
        ASSERT_FALSE(ld.symbolOrder.empty());
        ld.symbolOrder.push_back(ld.symbolOrder.front());
        expectLint(wpa.ccProf, ld, CheckId::PV014, "duplicate entry");
    }
    {
        core::LdProfile ld = wpa.ldProf;
        ld.symbolOrder.push_back("no_such_function");
        expectLint(wpa.ccProf, ld, CheckId::PV014, "phantom symbol");
    }
}

TEST(LintProfileFlow, CleanDcfgThenInjectedAnomaly)
{
    buildsys::Workflow wf(verifyConfig());
    profile::AggregatedProfile agg = profile::aggregate(wf.profile());
    core::AddrMapIndex index(wf.metadataBinary());
    core::WholeProgramDcfg dcfg = core::buildDcfg(agg, index);

    VerifyReport clean = lintProfileFlow(dcfg, {});
    EXPECT_TRUE(clean.clean()) << clean.engine.renderText();

    MutationTarget target{nullptr, nullptr, nullptr, &dcfg};
    std::string desc = injectDefect(DefectClass::FlowAnomaly, 1, target);
    ASSERT_NE(desc, "");
    VerifyReport dirty = lintProfileFlow(dcfg, {});
    EXPECT_GT(dirty.engine.warningCount(), 0u) << desc;
}

/** The verifier, directive lint and (optionally) flow lint, serially. */
VerifyReport
serialVerify(buildsys::Workflow &wf, const core::WholeProgramDcfg *flow)
{
    VerifyOptions opts;
    opts.expectedOrder = &wf.wpa().ldProf;
    VerifyReport rep = verifyExecutable(wf.verifiedBinary(), opts);
    rep.merge(lintDirectives(wf.wpa().ccProf, wf.wpa().ldProf,
                             wf.metadataBinary(), opts));
    if (flow)
        rep.merge(lintProfileFlow(*flow, opts));
    return rep;
}

/**
 * PV016 lints the DCFG the WPA applied.  One relink graph and a staged
 * wpa() -> propellerBinary() -> verifyReport() sequence must merge the
 * same findings — and both must equal linting a DCFG rebuilt from the
 * profile, which is what the flow lint read before it reused WPA's.
 */
TEST(LintProfileFlow, StagedAndOneGraphLintTheAppliedDcfg)
{
    for (const char *name : {"clang", "bigtable"}) {
        workload::WorkloadConfig cfg = workload::configByName(name);
        cfg.jobs = 4;
        buildsys::Workflow one(cfg);
        const VerifyReport &whole = one.verifyReport();

        buildsys::Workflow staged(cfg);
        staged.wpa();
        staged.propellerBinary();
        const VerifyReport &parts = staged.verifyReport();
        EXPECT_EQ(parts.engine.renderText(), whole.engine.renderText())
            << name;
        EXPECT_EQ(parts.functionsChecked, whole.functionsChecked) << name;

        core::AddrMapIndex index(one.metadataBinary());
        core::WholeProgramDcfg rebuilt =
            core::buildDcfg(profile::aggregate(one.profile()), index);
        ASSERT_FALSE(rebuilt.functions.empty()) << name;
        VerifyReport want = serialVerify(one, &rebuilt);
        EXPECT_EQ(whole.engine.renderText(), want.engine.renderText())
            << name;
        EXPECT_EQ(whole.functionsChecked, want.functionsChecked) << name;
    }
}

/**
 * An injected DCFG (the fleet service's seam) is not flow-linted.  The
 * relink pairs it with an identity-stamp profile, which maps to an empty
 * DCFG: before the lint reused WPA's DCFG it rebuilt one from that
 * profile and checked zero functions.  Linting the injected DCFG instead
 * is a separate correctness decision: measured on bench_fleet, it adds
 * PV016 warnings (5 and 1) to 2 of the 5 injected-DCFG relinks the bench
 * verifies, and rejecting those fails its relinks-equal-crossings gate.
 */
TEST(LintProfileFlow, InjectedDcfgIsNotLinted)
{
    workload::WorkloadConfig cfg = verifyConfig(2);
    buildsys::Workflow fresh(cfg);
    core::AddrMapIndex index(fresh.metadataBinary());
    const core::WholeProgramDcfg dcfg =
        core::buildDcfg(profile::aggregate(fresh.profile()), index);
    ASSERT_GT(lintProfileFlow(dcfg, {}).functionsChecked, 0u);

    for (bool staged : {false, true}) {
        buildsys::Workflow wf(cfg);
        profile::Profile stamp;
        stamp.binaryHash = wf.metadataBinary().identityHash;
        stamp.totalRetired = 1;
        wf.overrideProfile(std::move(stamp));
        wf.overrideDcfg(core::WholeProgramDcfg(dcfg));
        if (staged)
            wf.propellerBinary();
        const VerifyReport &rep = wf.verifyReport();
        VerifyReport want = serialVerify(wf, nullptr);
        EXPECT_EQ(rep.functionsChecked, want.functionsChecked)
            << "staged=" << staged;
        EXPECT_EQ(rep.engine.renderText(), want.engine.renderText())
            << "staged=" << staged;
    }
}

/** Reports merge additively — counters and diagnostics both. */
TEST(VerifyReport, MergeAccumulates)
{
    VerifyReport a;
    a.functionsChecked = 2;
    a.engine.report(CheckId::PV001, Severity::Error, "x", 0, "one");
    VerifyReport b;
    b.functionsChecked = 3;
    b.engine.report(CheckId::PV002, Severity::Warning, "y", 0, "two");
    a.merge(b);
    EXPECT_EQ(a.functionsChecked, 5u);
    EXPECT_EQ(a.engine.errorCount(), 1u);
    EXPECT_EQ(a.engine.warningCount(), 1u);
    EXPECT_EQ(a.engine.diagnostics().size(), 2u);
}

/** Phase-5 failures surface per function, like every other phase. */
TEST(Workflow, VerifyFailureAttributionInPhaseReport)
{
    buildsys::Workflow wf(verifyConfig());
    linker::Executable exe = wf.verifiedBinary();
    MutationTarget target{&exe, nullptr, nullptr, nullptr};
    std::string desc = injectDefect(DefectClass::EmbeddedData, 3, target);
    ASSERT_NE(desc, "");

    VerifyReport rep = verifyExecutable(exe, {});
    ASSERT_FALSE(rep.clean());
    std::vector<std::string> affected = rep.engine.affectedFunctions();
    ASSERT_FALSE(affected.empty());
    // Every diagnostic names a function that the attribution list has.
    std::set<std::string> names(affected.begin(), affected.end());
    for (const auto &d : rep.engine.diagnostics())
        EXPECT_TRUE(d.function.empty() || names.count(d.function))
            << d.render();
}

/**
 * Run the staged verifier on a task graph with the relink engine's
 * shape: decode chunks, then check and addr-map chunks that each wait
 * for every decode chunk, then finish().
 */
VerifyReport
verifyOnGraph(const linker::Executable &exe, const VerifyOptions &opts,
              unsigned jobs, size_t chunks = 4)
{
    ExecutableVerifier v(exe, opts, chunks);
    const size_t nr = v.rangeCount();
    sched::TaskGraph graph;
    std::vector<sched::TaskId> decode;
    for (size_t c = 0; c < chunks; ++c) {
        decode.push_back(graph.add([&, c] {
            for (size_t r = c * nr / chunks; r < (c + 1) * nr / chunks; ++r)
                v.decodeRange(r);
        }));
    }
    for (size_t c = 0; c < chunks; ++c) {
        graph.add(
            [&, c] {
                for (size_t r = c * nr / chunks; r < (c + 1) * nr / chunks;
                     ++r)
                    v.checkRange(r);
            },
            {}, decode);
        graph.add([&, c] { v.checkAddrMapChunk(c); }, {}, decode);
    }
    sched::SchedulerOptions sopts;
    sopts.threads = jobs;
    sched::Scheduler(sopts).run(graph);
    return v.finish();
}

/** Every diagnostic (id, severity, function, address, message), in order. */
std::vector<std::string>
rendered(const VerifyReport &rep)
{
    std::vector<std::string> out;
    for (const auto &d : rep.engine.diagnostics())
        out.push_back(d.render());
    return out;
}

/** The serial verifier and the staged one at jobs 1 and 4 agree. */
void
expectSameReports(const linker::Executable &exe, const VerifyOptions &opts,
                   const std::string &what)
{
    VerifyReport serial = verifyExecutable(exe, opts);
    for (unsigned jobs : {1u, 4u}) {
        VerifyReport staged = verifyOnGraph(exe, opts, jobs);
        EXPECT_EQ(rendered(staged), rendered(serial))
            << what << " jobs=" << jobs;
        EXPECT_EQ(staged.functionsChecked, serial.functionsChecked);
        EXPECT_EQ(staged.rangesDecoded, serial.rangesDecoded);
        EXPECT_EQ(staged.handAsmSkipped, serial.handAsmSkipped);
        EXPECT_EQ(staged.instructionsDecoded, serial.instructionsDecoded);
        EXPECT_EQ(staged.bytesVerified, serial.bytesVerified);
    }
}

TEST(VerifierEquivalence, StagedMatchesSerialOnMutationMatrix)
{
    buildsys::Workflow wf(verifyConfig(4));
    const linker::Executable &twin = wf.verifiedBinary();
    for (size_t c = 0; c < kDefectClassCount; ++c) {
        DefectClass cls = allDefectClasses()[c];
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            linker::Executable exe = twin;
            core::CcProfile cc = wf.wpa().ccProf;
            core::LdProfile ld = wf.wpa().ldProf;
            MutationTarget target{&exe, &cc, &ld, nullptr};
            std::string desc = injectDefect(cls, seed, target);
            VerifyOptions opts;
            opts.expectedOrder = &ld;
            expectSameReports(exe, opts,
                              std::string(defectName(cls)) + " seed " +
                                  std::to_string(seed) + " [" + desc +
                                  "]");
        }
    }
}

TEST(VerifierEquivalence, StagedMatchesSerialOnCleanBuilds)
{
    for (const char *name : {"bigtable", "search"}) {
        workload::WorkloadConfig cfg = workload::configByName(name);
        cfg.jobs = 4;
        buildsys::Workflow wf(cfg);
        const VerifyReport &shipped = wf.verifyReport();
        ASSERT_TRUE(shipped.clean()) << name;
        VerifyOptions opts;
        opts.expectedOrder = &wf.wpa().ldProf;
        expectSameReports(wf.verifiedBinary(), opts, name);
        EXPECT_TRUE(verifyExecutable(wf.verifiedBinary(), opts).clean())
            << name;
    }
}

/**
 * Overlapping ranges (PV002) decode independent instruction streams.  A
 * branch target that starts an instruction only in the *earlier* range
 * is still a boundary: the lookup must scan back past the owner.
 *
 *   f      [0x1000, 0x1005): alu r1 @1000, nop @1003, ret @1004
 *   f.cold [0x1001, 0x1005): alu     @1001,            ret @1004
 *   f.1    [0x1005, 0x1007): jmp 0x1003
 */
TEST(VerifierEquivalence, OverlapBoundaryScansBackToEarlierRange)
{
    linker::Executable exe;
    exe.name = "overlap";
    exe.textBase = 0x1000;
    exe.entryAddress = 0x1000;
    exe.text = {0x01, 0x01, 0x90, 0x90, 0xC3, 0xEB, 0xFC};
    exe.symbols = {
        {"f", "f", 0x1000, 0x1005, true, false},
        {"f.cold", "f", 0x1001, 0x1005, false, false},
        {"f.1", "f", 0x1005, 0x1007, false, false},
    };

    VerifyReport rep = verifyExecutable(exe, {});
    bool overlap = false;
    for (const auto &d : rep.engine.diagnostics()) {
        overlap = overlap || d.id == CheckId::PV002;
        EXPECT_NE(d.id, CheckId::PV005) << d.render();
    }
    EXPECT_TRUE(overlap) << rep.engine.renderText();
    EXPECT_EQ(rep.rangesDecoded, 3u);
    EXPECT_EQ(rep.bytesVerified, 5u + 4u + 2u);
    expectSameReports(exe, {}, "overlap");
}

} // namespace
} // namespace propeller::analysis
