/**
 * @file
 * Unit tests for the distributed build system substrate: the artifact
 * cache, cost model, phase reports and caching behaviour across the
 * 4-phase workflow.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "build/cache.h"
#include "build/journal.h"
#include "build/workflow.h"
#include "codegen/codegen.h"
#include "faultinject/faultinject.h"
#include "sim/machine.h"
#include "test_util.h"

namespace propeller::buildsys {
namespace {

TEST(ArtifactCache, HitMissAccounting)
{
    ArtifactCache cache;
    EXPECT_EQ(cache.lookup(1), nullptr);
    cache.put(1, {1, 2, 3});
    const auto *hit = cache.lookup(1);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->size(), 3u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().storedBytes, 3u);
    EXPECT_DOUBLE_EQ(cache.stats().hitRate(), 0.5);
}

TEST(ArtifactCache, ContainsDoesNotCount)
{
    ArtifactCache cache;
    cache.put(9, {0});
    EXPECT_TRUE(cache.contains(9));
    EXPECT_FALSE(cache.contains(10));
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(ArtifactCache, LayoutTierIsIndependentOfObjectTier)
{
    ArtifactCache cache;
    cache.put(7, {1, 2});
    cache.putLayout(7, {9, 9, 9});
    const auto *obj = cache.lookup(7);
    const auto *lay = cache.lookupLayout(7);
    ASSERT_NE(obj, nullptr);
    ASSERT_NE(lay, nullptr);
    EXPECT_EQ(obj->size(), 2u);
    EXPECT_EQ(lay->size(), 3u);
    // Counters are per tier.
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.layoutStats().hits, 1u);
    EXPECT_EQ(cache.layoutStats().misses, 0u);
    EXPECT_EQ(cache.lookupLayout(8), nullptr);
    EXPECT_EQ(cache.layoutStats().misses, 1u);
    // keys() stays an object-tier view (fault injection targets it).
    EXPECT_EQ(cache.keys().size(), 1u);
    EXPECT_EQ(cache.layoutKeys().size(), 1u);
}

TEST(ArtifactCache, SerializeRoundTripsBothTiers)
{
    ArtifactCache cache;
    cache.put(1, {10, 11});
    cache.put(2, {12});
    cache.putLayout(3, {13, 14, 15});
    std::vector<uint8_t> image = cache.serialize();

    ArtifactCache copy;
    ASSERT_TRUE(copy.deserialize(image));
    const auto *a = copy.lookup(1);
    const auto *b = copy.lookup(2);
    const auto *c = copy.lookupLayout(3);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(*a, (std::vector<uint8_t>{10, 11}));
    EXPECT_EQ(*b, (std::vector<uint8_t>{12}));
    EXPECT_EQ(*c, (std::vector<uint8_t>{13, 14, 15}));
    // A second serialize of the restored cache is a fixpoint.
    EXPECT_EQ(copy.serialize(), image);
}

TEST(ArtifactCache, DeserializeRejectsDamagedImages)
{
    ArtifactCache cache;
    cache.put(1, {10, 11});
    cache.putLayout(2, {20});
    std::vector<uint8_t> image = cache.serialize();

    // Bad magic, truncation, and a payload bit flip (checksum) must all
    // be rejected, leaving the target cache empty rather than poisoned.
    for (int damage = 0; damage < 3; ++damage) {
        std::vector<uint8_t> bad = image;
        if (damage == 0)
            bad[0] ^= 0xff;
        else if (damage == 1)
            bad.resize(bad.size() / 2);
        else
            bad[bad.size() / 2] ^= 0x01;
        ArtifactCache copy;
        copy.put(42, {1});
        EXPECT_FALSE(copy.deserialize(bad)) << "damage " << damage;
        EXPECT_EQ(copy.lookup(42), nullptr) << "damage " << damage;
        EXPECT_EQ(copy.keys().size(), 0u) << "damage " << damage;
    }
}

TEST(ArtifactCache, CorruptLayoutIsEvictedNotServed)
{
    ArtifactCache cache;
    cache.putLayout(5, {1, 2, 3, 4});
    ASSERT_TRUE(cache.corruptStoredLayout(
        5, [](std::vector<uint8_t> &bytes) { bytes[0] ^= 0xff; }));
    // The tier's hash check catches the rot on lookup; the engine then
    // evicts and recomputes.
    EXPECT_EQ(cache.lookupLayout(5), nullptr);
    cache.evictCorruptLayout(5);
    EXPECT_EQ(cache.layoutKeys().size(), 0u);
    EXPECT_GE(cache.layoutStats().corruptions, 1u);
}

TEST(CostModel, MakespanCombinesParallelismAndCriticalPath)
{
    CostModel cost;
    cost.actionOverheadSec = 0.0;
    std::vector<double> costs = {10, 10, 10, 10};
    // 4 actions on 2 workers: 40/2 + max(10) = 30.
    EXPECT_DOUBLE_EQ(cost.makespan(costs, 2), 30.0);
    // Unlimited workers: dominated by the longest action.
    EXPECT_NEAR(cost.makespan(costs, 4000), 10.0, 0.1);
}

class WorkflowTest : public ::testing::Test
{
  protected:
    static Workflow &
    wf()
    {
        static Workflow instance(test::smallConfig(55));
        return instance;
    }
};

TEST_F(WorkflowTest, PhaseReportsExist)
{
    wf().baseline();
    wf().propellerBinary();
    for (const char *name :
         {"phase1", "phase2.codegen", "phase2.link", "phase3.collect",
          "phase3.wpa", "phase4.codegen", "phase4.link",
          "baseline.link"}) {
        EXPECT_TRUE(wf().hasReport(name)) << name;
        if (wf().hasReport(name)) {
            const PhaseReport &report = wf().report(name);
            EXPECT_GE(report.makespanSec, 0.0) << name;
        }
    }
}

TEST_F(WorkflowTest, Phase4HitRateMatchesColdObjects)
{
    wf().propellerBinary();
    const PhaseReport &codegen = wf().report("phase4.codegen");
    size_t modules = wf().program().modules.size();
    EXPECT_EQ(codegen.actions + codegen.cacheHits, modules);
    EXPECT_EQ(wf().coldObjects().size(), codegen.cacheHits);
    // Most objects are cold (the paper's ~10-33% hot objects).
    EXPECT_GT(codegen.cacheHits, modules / 3);
}

TEST_F(WorkflowTest, RelinkCheaperThanBaselineLink)
{
    wf().baseline();
    wf().propellerBinary();
    // Cached cold inputs stream cheaper than fresh distributed outputs.
    EXPECT_LT(wf().report("phase4.link").makespanSec,
              wf().report("baseline.link").makespanSec);
}

TEST_F(WorkflowTest, WpaWithinActionMemoryLimit)
{
    wf().propellerBinary();
    EXPECT_FALSE(wf().report("phase3.wpa").memoryLimitExceeded);
    EXPECT_FALSE(wf().report("phase4.link").memoryLimitExceeded);
}

TEST_F(WorkflowTest, InstrumentedBuildModelled)
{
    PhaseReport report = wf().instrumentedBuildReport();
    EXPECT_GT(report.makespanSec, 0.0);
    EXPECT_GT(report.actions, 0u);
}

TEST_F(WorkflowTest, CacheHitRateHighAfterFullPipeline)
{
    wf().propellerBinary();
    // Re-request everything: all lookups now hit.
    const auto &stats_before = wf().cacheStats();
    EXPECT_GT(stats_before.hits, 0u);
}

TEST(WorkflowDeterminism, IdenticalBinariesAcrossInstances)
{
    Workflow a(test::smallConfig(77));
    Workflow b(test::smallConfig(77));
    EXPECT_EQ(a.baseline().text, b.baseline().text);
    EXPECT_EQ(a.propellerBinary().text, b.propellerBinary().text);
    EXPECT_EQ(a.propellerBinary().entryAddress,
              b.propellerBinary().entryAddress);
}

TEST(WorkflowBinaries, MetadataLargerThanBaseline)
{
    Workflow wf(test::smallConfig(88));
    uint64_t base = wf.baseline().fileSize();
    uint64_t pm = wf.metadataBinary().fileSize();
    uint64_t bm = wf.boltInputBinary().fileSize();
    EXPECT_GT(pm, base) << "PM carries .bb_addr_map";
    EXPECT_GT(bm, base) << "BM carries .rela";
    // Metadata binaries share the same text image.
    EXPECT_EQ(wf.metadataBinary().text, wf.baseline().text);
    EXPECT_EQ(wf.boltInputBinary().text, wf.baseline().text);
}

TEST(WorkflowBinaries, PropellerBinaryNearBaselineSize)
{
    Workflow wf(test::smallConfig(99));
    uint64_t base = wf.baseline().sizes.text;
    uint64_t po = wf.propellerBinary().sizes.text;
    EXPECT_LT(po, base * 115 / 100)
        << "PO text must stay within a few percent of baseline";
}

// ---------------------------------------------------------------------
// The relink links the Phase 4 objects once

/** Spans of @p schedule that link ("link:..."). */
size_t
linkSpans(const sched::ScheduleReport &schedule)
{
    return std::count_if(schedule.spans.begin(), schedule.spans.end(),
                         [](const sched::TaskSpan &span) {
                             return span.label.rfind("link:", 0) == 0;
                         });
}

TEST(RelinkLinksOnce, OneGraphVerifyHasOneLinkSpan)
{
    Workflow wf(test::smallConfig(101));
    wf.verifyReport();
    EXPECT_EQ(linkSpans(wf.relinkSchedule()), 1u);
}

TEST(RelinkLinksOnce, StagedVerifyGraphLinksNothing)
{
    Workflow wf(test::smallConfig(101));
    wf.propellerBinary();
    EXPECT_EQ(linkSpans(wf.relinkSchedule()), 1u);
    wf.verifyReport();
    EXPECT_GT(wf.relinkSchedule().tasksExecuted, 0u);
    EXPECT_EQ(linkSpans(wf.relinkSchedule()), 0u);
}

TEST(RelinkLinksOnce, VerifiedBinaryIsPoWithMaps)
{
    workload::WorkloadConfig cfg = test::smallConfig(102);
    Workflow wf(cfg);
    const linker::Executable &verified = wf.verifiedBinary();
    const linker::Executable &po = wf.propellerBinary();
    EXPECT_EQ(verified.name, cfg.name + ".po-verify");
    EXPECT_EQ(po.name, cfg.name + ".po");
    EXPECT_FALSE(verified.bbAddrMap.empty());
    EXPECT_GT(verified.sizes.bbAddrMap, 0u);
    EXPECT_EQ(verified.text, po.text);
    linker::Executable stripped = linker::stripAddrMaps(verified);
    stripped.name = po.name;
    EXPECT_TRUE(stripped == po);
}

TEST(RelinkLinksOnce, IterativeRoundProfilesTheKeptLink)
{
    // Round 2 profiles the Phase 4 link itself, renamed: rebuilding
    // round 2 by hand from verifiedBinary() reproduces po2 exactly.
    workload::WorkloadConfig cfg = test::smallConfig(103);
    Workflow wf(cfg);
    linker::Executable po2 = wf.iterativePropellerBinary();

    linker::Executable pm2 = wf.verifiedBinary();
    pm2.name = cfg.name + ".pm2";
    sim::RunResult run = sim::run(pm2, workload::profileOptions(cfg));
    core::WpaResult wpa2 =
        core::runWholeProgramAnalysis(pm2, run.profile, {}, cfg.jobs);
    codegen::ClusterMap clusters = wpa2.ccProf.clusters;
    codegen::sanitizeClusterMap(wf.program(), clusters);
    codegen::Options copts;
    copts.bbSections = codegen::BbSectionsMode::Clusters;
    copts.clusters = &clusters;
    copts.emitAddrMapSection = true;
    linker::Options lopts;
    lopts.outputName = cfg.name + ".po2";
    lopts.entrySymbol = wf.program().entryFunction;
    lopts.hugePagesText = cfg.hugePages;
    lopts.symbolOrder = wpa2.ldProf.symbolOrder;
    lopts.stripAddrMaps = true;
    EXPECT_TRUE(linker::link(codegen::compileProgram(wf.program(), copts),
                             lopts) == po2);
}

// ---------------------------------------------------------------------
// Relink teardown: each large intermediate of a relink is released by a
// task of its graph, after its last reader.  The one-graph verify and the
// staged propellerBinary() -> verifyReport() have different graph shapes
// (and so different last readers); both must ship and report the same.

struct TeardownCase
{
    const char *app;
    unsigned jobs;
    bool faults; ///< Fault-injecting hooks; zero-rate hooks otherwise.
};

std::string
caseName(const TeardownCase &c)
{
    return std::string(c.app) + "_jobs" + std::to_string(c.jobs) +
           (c.faults ? "_faults" : "_zero");
}

void
PrintTo(const TeardownCase &c, std::ostream *os)
{
    *os << caseName(c);
}

std::string
renderReport(const PhaseReport &r)
{
    std::ostringstream out;
    out.precision(17);
    out << r.phase << ' ' << r.makespanSec << ' ' << r.actions << ' '
        << r.cacheHits << ' ' << r.peakActionMemory << ' '
        << r.memoryLimitExceeded << ' ' << r.retries << ' '
        << r.cacheCorruptions << ' ' << r.quarantined;
    for (const auto &line : r.failures)
        out << '\n' << line;
    return out.str();
}

std::string
renderStats(const CacheStats &s)
{
    std::ostringstream out;
    out << s.hits << ' ' << s.misses << ' ' << s.entries << ' '
        << s.storedBytes << ' ' << s.corruptions << ' ' << s.primedHits;
    return out.str();
}

/** What a relink ships and reports. */
struct RelinkOutcome
{
    std::vector<uint8_t> text;
    std::string codegen;
    std::string link;
    std::string verify;
    std::string diagnostics;
    std::string cache;
};

RelinkOutcome
relinkOutcome(const TeardownCase &c, bool staged)
{
    workload::WorkloadConfig cfg = workload::configByName(c.app);
    cfg.jobs = c.jobs;
    faultinject::FaultSpec spec;
    if (c.faults) {
        spec.seed = 7;
        spec.profileRate = 0.25;
        spec.cacheRate = 0.25;
        spec.addrMapRate = 0.25;
        spec.execFailRate = 0.1;
    }
    faultinject::FaultInjector injector(spec);
    Workflow wf(cfg);
    wf.setFaultHooks(&injector);
    if (staged)
        wf.propellerBinary();
    const analysis::VerifyReport &rep = wf.verifyReport();

    RelinkOutcome out;
    out.text = wf.propellerBinary().text;
    out.codegen = renderReport(wf.report("phase4.codegen"));
    out.link = renderReport(wf.report("phase4.link"));
    out.verify = renderReport(wf.report("phase5.verify"));
    out.diagnostics = rep.engine.renderText();
    out.cache = renderStats(wf.cacheStats()) + " / " +
                renderStats(wf.layoutCacheStats());
    return out;
}

class RelinkTeardown : public ::testing::TestWithParam<TeardownCase>
{
};

TEST_P(RelinkTeardown, OneGraphAndStagedRelinksAgree)
{
    const RelinkOutcome one = relinkOutcome(GetParam(), false);
    const RelinkOutcome staged = relinkOutcome(GetParam(), true);
    EXPECT_FALSE(one.text.empty());
    EXPECT_TRUE(one.text == staged.text);
    EXPECT_EQ(one.codegen, staged.codegen);
    EXPECT_EQ(one.link, staged.link);
    EXPECT_EQ(one.verify, staged.verify);
    EXPECT_EQ(one.diagnostics, staged.diagnostics);
    EXPECT_EQ(one.cache, staged.cache);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, RelinkTeardown,
    ::testing::Values(TeardownCase{"clang", 1, false},
                      TeardownCase{"clang", 1, true},
                      TeardownCase{"clang", 4, false},
                      TeardownCase{"clang", 4, true},
                      TeardownCase{"bigtable", 1, false},
                      TeardownCase{"bigtable", 1, true},
                      TeardownCase{"bigtable", 4, false},
                      TeardownCase{"bigtable", 4, true},
                      TeardownCase{"search", 1, false},
                      TeardownCase{"search", 1, true},
                      TeardownCase{"search", 4, false},
                      TeardownCase{"search", 4, true}),
    [](const ::testing::TestParamInfo<TeardownCase> &info) {
        return caseName(info.param);
    });

// ---------------------------------------------------------------------
// Crash-safe journal persistence (the fleet cache image's container)

TEST(Journal, EncodeDecodeRoundTripsGenerationAndPayload)
{
    const std::vector<uint8_t> payload = {0xde, 0xad, 0xbe, 0xef, 0x00,
                                          0x01, 0x7f};
    std::vector<uint8_t> image = encodeJournal(41, payload);
    EXPECT_EQ(image.size(), kJournalHeaderBytes + payload.size() +
                                kJournalFooterBytes);

    uint64_t gen = 0;
    std::vector<uint8_t> out;
    ASSERT_TRUE(decodeJournal(image, &gen, &out));
    EXPECT_EQ(gen, 41u);
    EXPECT_EQ(out, payload);

    // An empty payload is a valid (if pointless) image.
    image = encodeJournal(7, {});
    ASSERT_TRUE(decodeJournal(image, &gen, &out));
    EXPECT_EQ(gen, 7u);
    EXPECT_TRUE(out.empty());
}

TEST(Journal, DecodeRejectsEveryTruncationPoint)
{
    std::vector<uint8_t> payload(64);
    for (size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<uint8_t>(i * 37 + 1);
    const std::vector<uint8_t> image = encodeJournal(3, payload);

    // Every proper prefix — torn inside the header, the payload, or the
    // footer — must read as "no image", never as a short payload.
    for (size_t len = 0; len < image.size(); ++len) {
        std::vector<uint8_t> torn(image.begin(), image.begin() + len);
        uint64_t gen = 99;
        std::vector<uint8_t> out = {0xaa};
        EXPECT_FALSE(decodeJournal(torn, &gen, &out)) << "len " << len;
        EXPECT_EQ(gen, 99u) << "outputs touched at len " << len;
        EXPECT_EQ(out.size(), 1u) << "outputs touched at len " << len;
    }
}

TEST(Journal, DecodeRejectsBitDamageInEveryRegion)
{
    std::vector<uint8_t> payload(32, 0x5a);
    const std::vector<uint8_t> image = encodeJournal(12, payload);

    // One representative byte per region: magic, generation, length,
    // payload, footer checksum.
    const size_t probes[] = {0, 5, 14, kJournalHeaderBytes + 3,
                             image.size() - 2};
    for (size_t pos : probes) {
        std::vector<uint8_t> damaged = image;
        damaged[pos] ^= 0x10;
        EXPECT_FALSE(decodeJournal(damaged, nullptr, nullptr))
            << "byte " << pos;
    }
}

TEST(Journal, AtomicWriteCrashSweepNeverCorruptsExistingImage)
{
    const std::string path = "test_journal_crash.img";
    const std::string tmp = path + ".tmp";
    std::remove(path.c_str());

    std::vector<uint8_t> oldPayload(48, 0x11);
    std::vector<uint8_t> newPayload(96, 0x22);
    const std::vector<uint8_t> oldImage = encodeJournal(1, oldPayload);
    const std::vector<uint8_t> newImage = encodeJournal(2, newPayload);
    ASSERT_TRUE(atomicWriteFile(path, oldImage));

    // Kill the save at every byte boundary class of the new image:
    // inside the header, at the header/payload and payload/footer
    // boundaries, strided through the payload, inside the footer, and
    // after the last byte (written in full but never renamed).
    std::vector<long> crashes;
    for (size_t b = 0; b <= kJournalHeaderBytes; ++b)
        crashes.push_back(static_cast<long>(b));
    for (size_t b = kJournalHeaderBytes; b < newImage.size(); b += 7)
        crashes.push_back(static_cast<long>(b));
    for (size_t b = newImage.size() - kJournalFooterBytes;
         b <= newImage.size(); ++b)
        crashes.push_back(static_cast<long>(b));

    for (long crash : crashes) {
        EXPECT_FALSE(atomicWriteFile(path, newImage, crash))
            << "crash at " << crash;
        std::vector<uint8_t> file;
        ASSERT_TRUE(readFile(path, file)) << "crash at " << crash;
        uint64_t gen = 0;
        std::vector<uint8_t> out;
        ASSERT_TRUE(decodeJournal(file, &gen, &out))
            << "crash at " << crash;
        EXPECT_EQ(gen, 1u) << "crash at " << crash;
        EXPECT_EQ(out, oldPayload) << "crash at " << crash;
    }

    // The next clean save goes through and replaces the image whole.
    ASSERT_TRUE(atomicWriteFile(path, newImage));
    std::vector<uint8_t> file;
    ASSERT_TRUE(readFile(path, file));
    uint64_t gen = 0;
    std::vector<uint8_t> out;
    ASSERT_TRUE(decodeJournal(file, &gen, &out));
    EXPECT_EQ(gen, 2u);
    EXPECT_EQ(out, newPayload);

    std::remove(path.c_str());
    std::remove(tmp.c_str());
}

TEST(WorkflowCache, JournaledImageRoundTripsGeneration)
{
    const char *path = "test_wf_journal.cache";
    std::remove(path);
    workload::WorkloadConfig cfg = test::smallConfig();

    buildsys::Workflow writer(cfg);
    writer.propellerBinary();
    ASSERT_TRUE(writer.saveCacheFile(path, /*generation=*/17));

    buildsys::Workflow reader(cfg);
    uint64_t gen = 0;
    ASSERT_TRUE(reader.loadCacheFile(path, &gen));
    EXPECT_EQ(gen, 17u);
    std::remove(path);
}

TEST(WorkflowCache, TornImageColdStartsCleanly)
{
    const char *path = "test_wf_torn.cache";
    workload::WorkloadConfig cfg = test::smallConfig();

    buildsys::Workflow writer(cfg);
    writer.propellerBinary();
    ASSERT_TRUE(writer.saveCacheFile(path, 5));

    // Tear the image mid-payload: the load must report "no image" (a
    // cold start), never abort or half-load.
    std::vector<uint8_t> image;
    ASSERT_TRUE(readFile(path, image));
    image.resize(image.size() / 2);
    ASSERT_TRUE(atomicWriteFile(path, image));

    buildsys::Workflow reader(cfg);
    uint64_t gen = 99;
    EXPECT_FALSE(reader.loadCacheFile(path, &gen));
    EXPECT_EQ(gen, 99u);

    // The cold workflow still relinks and can re-persist over the torn
    // image.
    reader.propellerBinary();
    ASSERT_TRUE(reader.saveCacheFile(path, 6));
    buildsys::Workflow again(cfg);
    uint64_t gen2 = 0;
    EXPECT_TRUE(again.loadCacheFile(path, &gen2));
    EXPECT_EQ(gen2, 6u);
    std::remove(path);
    std::remove((std::string(path) + ".tmp").c_str());
}

TEST(WorkflowReports, BoltReportsPopulated)
{
    Workflow wf(test::smallConfig(66));
    wf.propellerBinary(); // Runs the WPA for the comparison below.
    bolt::BoltStats stats;
    wf.boltBinary({}, &stats);
    EXPECT_TRUE(wf.hasReport("bolt.convert"));
    EXPECT_TRUE(wf.hasReport("bolt.opt"));
    EXPECT_GT(wf.report("bolt.opt").peakActionMemory,
              wf.report("phase3.wpa").peakActionMemory)
        << "monolithic BOLT must out-consume Propeller's WPA";
}

} // namespace
} // namespace propeller::buildsys
