/**
 * @file
 * relinkbench — end-to-end benchmark of the relinking optimizer.
 *
 * Three closed-loop workloads, each driven by one caller from one
 * process with at most four worker threads:
 *
 *   cold-search     every operation relinks `search` (17,000 functions,
 *                   95% cold objects) from a cache image that holds only
 *                   the Phase 2 objects: WPA, Phase 4 codegen, link and
 *                   verify all run, the layout memo serves nothing.
 *   warm-bigtable   every operation relinks `bigtable` from the image of
 *                   a cold relink, on a lightly drifted profile, and
 *                   saves the image: the weekly re-relink, dominated by
 *                   the build cache.
 *   fleet-bigtable  every operation is one epoch of the fleet service
 *                   over `bigtable` (32 machines, one thread): shard
 *                   decode, aggregation, stale matching and the drift
 *                   logic run on every epoch, relinks on some.
 *
 * An untraced run (--trace 0) prints the end-to-end metrics.  A traced
 * run (--trace 1) spends half its time on untraced operations and half
 * on operations wrapped in spans, then probes each layer's public entry
 * point once, and prints the per-layer metrics.  Every operation's
 * outputs are checked; a failed check fails the operation and makes the
 * command exit 1.  The last line of standard output is one JSON object.
 *
 * Usage:
 *   relinkbench --workload NAME --seed N --seconds S --trace 0|1
 *               --workdir DIR
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/verifier.h"
#include "build/workflow.h"
#include "codegen/codegen.h"
#include "linker/linker.h"
#include "measure.h"
#include "profile/profile.h"
#include "propeller/addr_map_index.h"
#include "propeller/layout.h"
#include "propeller/profile_mapper.h"
#include "propeller/propeller.h"
#include "service/fleet.h"
#include "sim/machine.h"
#include "stale/stale.h"
#include "workload/workload.h"

namespace {

using namespace propeller;
using relinkbench::Kind;
using relinkbench::nowSec;
using relinkbench::Report;
using relinkbench::Tracer;

const char *const kWorkloads[] = {"cold-search", "warm-bigtable",
                                  "fleet-bigtable"};

/** Worker threads of the relink workloads (the fleet runs on one). */
constexpr unsigned kJobs = 4;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupRepeats = 3;

/** Operations each measuring phase runs at least, however long. */
constexpr size_t kMinOps = 3;

/** Shard size of the fleet's wire format, also used by the decode probe. */
constexpr uint32_t kShardSamples = 64;

// The fleet releases a new binary version every kReleaseCadence epochs
// from kFirstRelease on.  Without new versions every relink fires in
// the first ~19 epochs and the rest of a run is idle ingestion.
constexpr uint32_t kFleetMachines = 32;
constexpr uint32_t kFirstRelease = 20;
constexpr uint32_t kReleaseCadence = 20;

/** Epochs of one fleet lifetime: two releases. */
constexpr uint32_t kFleetEpochs = kFirstRelease + 2 * kReleaseCadence;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;
};

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "relinkbench: %s\n"
                 "usage: relinkbench --workload "
                 "cold-search|warm-bigtable|fleet-bigtable --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n",
                 why.c_str());
    return 2;
}

bool
parseUint(const char *text, uint64_t max, uint64_t *out)
{
    if (*text == '\0')
        return false;
    uint64_t value = 0;
    for (const char *p = text; *p; ++p) {
        if (*p < '0' || *p > '9')
            return false;
        uint64_t digit = static_cast<uint64_t>(*p - '0');
        if (value > (max - digit) / 10)
            return false;
        value = value * 10 + digit;
    }
    *out = value;
    return true;
}

/** Parse argv; returns 0 on success, else the usage exit code. */
int
parseArgs(int argc, char **argv, Args *args)
{
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + flag);
        const char *value = argv[++i];
        uint64_t n = 0;
        if (flag == "--workload") {
            args->workload = value;
        } else if (flag == "--seed") {
            if (!parseUint(value, UINT64_MAX, &n))
                return usage("--seed must be an integer in [0, 2^64)");
            args->seed = n;
            have_seed = true;
        } else if (flag == "--seconds") {
            if (!parseUint(value, 3600, &n) || n == 0)
                return usage("--seconds must be an integer in [1, 3600]");
            args->seconds = static_cast<double>(n);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (!parseUint(value, 1, &n))
                return usage("--trace must be 0 or 1");
            args->trace = n == 1;
            have_trace = true;
        } else if (flag == "--workdir") {
            args->workdir = value;
        } else {
            return usage("unknown argument " + flag);
        }
    }
    // Validate the name here: workload::configByName asserts on names it
    // does not know.
    bool known = false;
    for (const char *name : kWorkloads)
        known = known || args->workload == name;
    if (!known)
        return usage("unknown workload '" + args->workload + "'");
    if (!have_seed || !have_seconds || !have_trace || args->workdir.empty())
        return usage("--seed, --seconds, --trace and --workdir are required");
    return 0;
}

/**
 * Correctness bookkeeping.  Checks made while an operation runs fail
 * that operation; checks made in set-up or at the end fail the run.
 */
struct Checks
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool ok = true;
    bool opFailed = false;

    void
    expect(bool cond, const std::string &what)
    {
        if (cond)
            return;
        std::fprintf(stderr, "relinkbench: check failed: %s\n",
                     what.c_str());
        ok = false;
        opFailed = true;
    }

    void
    beginOp()
    {
        ++attempted;
        opFailed = false;
    }

    void
    endOp()
    {
        if (opFailed)
            ++failed;
        opFailed = false;
    }
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Run @p op until @p seconds have passed and at least kMinOps ran;
 * returns each operation's wall time as @p op reports it.
 */
std::vector<double>
runFor(double seconds, size_t min_ops, const std::function<double()> &op)
{
    std::vector<double> times;
    double deadline = nowSec() + seconds;
    while (nowSec() < deadline || times.size() < min_ops)
        times.push_back(op());
    return times;
}

/** Baseline-versus-shipped simulator counters. */
struct Quality
{
    double cyclesGain = 0.0;
    double l1iReduction = 0.0;
    double itlbReduction = 0.0;
    double takenReduction = 0.0;
};

double
reduction(uint64_t base, uint64_t opt)
{
    return base == 0 ? 0.0
                     : 1.0 - static_cast<double>(opt) /
                                 static_cast<double>(base);
}

/**
 * Simulate both binaries under the workload's evaluation options.  The
 * two must retire the same logical instruction stream: layout moves
 * code, never behaviour.
 */
Quality
evaluate(const linker::Executable &base, const linker::Executable &shipped,
         const workload::WorkloadConfig &cfg, Checks &checks)
{
    sim::RunResult b = sim::run(base, workload::evalOptions(cfg));
    sim::RunResult o = sim::run(shipped, workload::evalOptions(cfg));
    checks.expect(b.startupOk && !b.fault, "baseline runs cleanly");
    checks.expect(o.startupOk && !o.fault, "shipped binary runs cleanly");
    checks.expect(b.counters.logicalInstructions ==
                      o.counters.logicalInstructions,
                  "shipped binary retires the baseline's logical "
                  "instruction count");
    Quality q;
    q.cyclesGain = ratio(static_cast<double>(b.counters.cycles()),
                         static_cast<double>(o.counters.cycles())) -
                   1.0;
    q.l1iReduction = reduction(b.counters.l1iMisses, o.counters.l1iMisses);
    q.itlbReduction =
        reduction(b.counters.itlbMisses, o.counters.itlbMisses);
    q.takenReduction =
        reduction(b.counters.takenBranches, o.counters.takenBranches);
    return q;
}

void
addQuality(Report &rep, const Quality &q, bool traced)
{
    const char *gain_note = "baseline cycles / shipped cycles - 1";
    if (!traced) {
        rep.add("cycles_gain", q.cyclesGain, "ratio", Kind::Exact, gain_note);
        return;
    }
    rep.add("sim.cycles_gain", q.cyclesGain, "ratio", Kind::Exact, gain_note);
    rep.add("sim.l1i_miss_reduction", q.l1iReduction, "ratio", Kind::Exact);
    rep.add("sim.itlb_miss_reduction", q.itlbReduction, "ratio",
            Kind::Exact);
    rep.add("sim.taken_branch_reduction", q.takenReduction, "ratio",
            Kind::Exact);
}

/**
 * The drifted profile of the warm workload: one extra intra-function
 * taken-branch record for every 10th distinct sampled function (the
 * seed picks which residue), so exactly those functions' layouts miss
 * the memo.
 */
profile::Profile
makeDriftedProfile(const profile::Profile &prof, const linker::Executable &pm,
                   uint64_t seed, uint64_t *drifted_out)
{
    core::AddrMapIndex index(pm);
    profile::Profile drifted = prof;
    std::set<uint32_t> seen;
    std::vector<profile::BranchRecord> extras;
    for (const profile::LbrSample &sample : prof.samples) {
        for (uint8_t r = 0; r < sample.count; ++r) {
            const profile::BranchRecord &rec = sample.records[r];
            auto bf = index.lookup(rec.from);
            auto bt = index.lookup(rec.to);
            if (!bf || !bt || bf->funcIndex != bt->funcIndex)
                continue;
            if (bt->blockStart != rec.to ||
                bt->bbId == index.entryBlock(bt->funcIndex))
                continue;
            if (!seen.insert(bf->funcIndex).second)
                continue;
            if ((seen.size() + seed % 10) % 10 == 1)
                extras.push_back(rec);
        }
    }
    for (const profile::BranchRecord &rec : extras) {
        profile::LbrSample sample;
        sample.records[0] = rec;
        sample.count = 1;
        drifted.samples.push_back(sample);
    }
    *drifted_out = extras.size();
    return drifted;
}

/** Link actions the workflow's PhaseReports record. */
uint32_t
linkActions(const buildsys::Workflow &wf)
{
    uint32_t links = 0;
    for (const char *phase :
         {"baseline.link", "phase2.link", "phase2.link.bm", "phase4.link"})
        if (wf.hasReport(phase))
            links += wf.report(phase).actions;
    return links;
}

/**
 * The relink called one stage at a time, each in its own span:
 * cache load, WPA, Phase 4 (codegen + link) and verify, then a save of
 * the resulting image to @p save_path.  @p wf carries its overrides.
 */
void
stagedRelink(buildsys::Workflow &wf, const std::string &image,
             const std::string &save_path, Tracer &tracer, Checks &checks)
{
    bool loaded = false;
    {
        auto s = tracer.span("build.cache_load");
        loaded = wf.loadCacheFile(image);
    }
    checks.expect(loaded, "staged relink loads the cache image");
    {
        auto s = tracer.span("build.wpa");
        wf.wpa();
    }
    {
        auto s = tracer.span("build.phase4");
        wf.propellerBinary();
    }
    {
        auto s = tracer.span("build.verify");
        wf.verifyReport();
    }
    bool saved = false;
    {
        auto s = tracer.span("build.cache_save");
        saved = wf.saveCacheFile(save_path);
    }
    checks.expect(saved, "staged relink saves its cache image");
    checks.expect(wf.verifyReport().clean(), "staged relink verifies clean");
}

/** Per-layer counts of one staged relink. */
void
addStagedCounts(Report &rep, buildsys::Workflow &wf)
{
    rep.add("codegen.modules_rebuilt", wf.report("phase4.codegen").actions,
            "count", Kind::Exact, "phase 4 object-cache misses");
    rep.add("linker.links_per_relink", linkActions(wf), "count",
            Kind::Exact, "link actions in the PhaseReports");
    rep.add("propeller.hot_functions",
            static_cast<double>(wf.wpa().hotFunctions.size()), "count",
            Kind::Exact);
    rep.add("analysis.diagnostics",
            static_cast<double>(
                wf.verifyReport().engine.diagnostics().size()),
            "count", Kind::Exact, "must be 0");
    const buildsys::CacheStats &objects = wf.cacheStats();
    rep.add("build.object_hit_rate",
            ratio(static_cast<double>(objects.hits),
                  static_cast<double>(objects.hits + objects.misses)),
            "ratio", Kind::Exact);
    rep.add("build.object_lookups",
            static_cast<double>(objects.hits + objects.misses), "count",
            Kind::Exact);
}

/** Inputs of the layer probes: one relink's products. */
struct ProbeInputs
{
    const workload::WorkloadConfig *cfg = nullptr;
    unsigned jobs = 1;
    const ir::Program *program = nullptr;
    const linker::Executable *pm = nullptr;
    const core::WpaResult *wpa = nullptr;
    const linker::Executable *verified = nullptr;
    const std::vector<uint8_t> *shippedText = nullptr;
    /** The binary the stale matcher maps from (== pm: zero drift). */
    const linker::Executable *previousPm = nullptr;
};

/**
 * Call each layer's public entry point once, in its own span, on one
 * relink's inputs.  The span durations become the per-layer times.
 */
void
probeLayers(const ProbeInputs &in, Tracer &tracer, Report &rep,
            Checks &checks)
{
    {
        auto s = tracer.span("workload.generate");
        ir::Program generated = workload::generate(*in.cfg);
        checks.expect(!generated.modules.empty(), "generate yields modules");
    }

    profile::Profile prof;
    {
        auto s = tracer.span("sim.profile");
        prof = sim::run(*in.pm, workload::profileOptions(*in.cfg)).profile;
    }
    rep.add("profile.samples", static_cast<double>(prof.samples.size()),
            "count", Kind::Exact, "LBR samples of one profiling run");

    std::vector<std::vector<uint8_t>> shards;
    {
        auto s = tracer.span("profile.serialize");
        shards = profile::serializeShards(prof, kShardSamples);
    }
    {
        auto s = tracer.span("profile.decode");
        profile::ShardLoadStats stats;
        profile::Profile decoded = profile::loadShards(shards, &stats);
        checks.expect(stats.shardsRejected == 0 &&
                          decoded.samples.size() == prof.samples.size(),
                      "profile shards decode without loss");
    }

    profile::AggregatedProfile agg;
    {
        auto s = tracer.span("profile.aggregate");
        profile::AggregationOptions opts;
        opts.threads = in.jobs;
        agg = profile::aggregate(prof, opts);
    }

    std::unique_ptr<core::AddrMapIndex> index;
    {
        auto s = tracer.span("propeller.index");
        index = std::make_unique<core::AddrMapIndex>(*in.pm);
    }
    core::WholeProgramDcfg dcfg;
    {
        auto s = tracer.span("propeller.dcfg");
        dcfg = core::buildDcfg(agg, *index, nullptr, in.jobs);
    }
    {
        auto s = tracer.span("propeller.layout");
        core::LayoutResult layout =
            core::computeLayout(dcfg, *index, {}, in.jobs);
        checks.expect(!layout.hotFunctions.empty(), "layout finds hot code");
    }
    {
        auto s = tracer.span("propeller.wpa");
        core::WpaResult wpa =
            core::runWholeProgramAnalysis(*in.pm, prof, {}, in.jobs);
        checks.expect(!wpa.stats.profileMismatch,
                      "WPA accepts the profile's identity");
    }

    std::vector<elf::ObjectFile> objects;
    {
        auto s = tracer.span("codegen.compile");
        codegen::ClusterMap clusters = in.wpa->ccProf.clusters;
        codegen::sanitizeClusterMap(*in.program, clusters);
        codegen::Options opts;
        opts.bbSections = codegen::BbSectionsMode::Clusters;
        opts.clusters = &clusters;
        opts.emitAddrMapSection = true;
        objects = codegen::compileProgram(*in.program, opts);
    }
    {
        auto s = tracer.span("linker.link");
        linker::Options opts;
        opts.outputName = in.cfg->name + ".po";
        opts.entrySymbol = in.program->entryFunction;
        opts.symbolOrder = in.wpa->ldProf.symbolOrder;
        opts.hugePagesText = in.cfg->hugePages;
        opts.stripAddrMaps = true;
        linker::Executable exe = linker::link(objects, opts);
        checks.expect(exe.text == *in.shippedText,
                      "compile + link from scratch reproduces the shipped "
                      "text");
    }
    {
        auto s = tracer.span("analysis.verify");
        analysis::VerifyOptions opts;
        opts.expectedOrder = &in.wpa->ldProf;
        for (const auto &name : in.wpa->stats.quarantinedFunctions)
            opts.exemptFunctions.insert(name);
        analysis::VerifyReport vrep =
            analysis::verifyExecutable(*in.verified, opts);
        checks.expect(vrep.clean(), "verifier probe is clean");
    }

    // Stale matching maps the previous version's DCFG onto this one.
    // On the relink workloads the two binaries are the same (the
    // zero-drift identity match).
    core::AddrMapIndex previous_index(*in.previousPm);
    core::WholeProgramDcfg previous_dcfg = dcfg;
    if (in.previousPm != in.pm) {
        profile::Profile previous_prof =
            sim::run(*in.previousPm, workload::profileOptions(*in.cfg))
                .profile;
        profile::AggregationOptions opts;
        opts.threads = in.jobs;
        previous_dcfg = core::buildDcfg(
            profile::aggregate(previous_prof, opts), previous_index,
            nullptr, in.jobs);
    }
    {
        auto s = tracer.span("stale.match");
        stale::StaleMatchResult match =
            stale::matchStaleProfile(previous_dcfg, previous_index, *index);
        rep.add("stale.blocks_matched_frac", match.stats.blockMatchRate(),
                "ratio", Kind::Exact, "sampled blocks matched");
    }
}

/** Median span durations become the per-layer times ("<span>_s"). */
void
addLayerTimes(Report &rep, const Tracer &tracer)
{
    for (const char *span :
         {"workload.generate", "sim.profile", "codegen.compile",
          "linker.link", "profile.aggregate", "profile.decode",
          "propeller.dcfg", "propeller.layout", "propeller.wpa",
          "analysis.verify", "stale.match", "build.wpa", "build.phase4",
          "build.verify", "build.cache_load", "build.cache_save"}) {
        std::vector<double> d = tracer.durations(span);
        rep.add(std::string(span) + "_s", relinkbench::median(d), "s",
                Kind::Measured,
                "median of " + std::to_string(d.size()) + " spans");
    }
    double staged = relinkbench::median(tracer.durations("build.wpa")) +
                    relinkbench::median(tracer.durations("build.phase4")) +
                    relinkbench::median(tracer.durations("build.verify"));
    rep.add("build.staged_sum_s", staged, "s", Kind::Measured,
            "wpa + phase4 + verify called one at a time");
}

/** The scheduler's counters for one relink graph that took @p wall_s. */
void
addSchedule(Report &rep, const sched::ScheduleReport &schedule,
            double wall_s, double relink_s)
{
    double idle = 0.0;
    for (double s : schedule.workerIdleSec)
        idle += s;
    rep.add("sched.steal_hit_rate", schedule.stealHitRate(), "ratio",
            Kind::Measured,
            std::to_string(schedule.stealAttempts) + " steal probes");
    rep.add("sched.worker_idle_frac",
            ratio(idle, static_cast<double>(schedule.realThreads) * wall_s),
            "ratio", Kind::Measured,
            std::to_string(schedule.realThreads) + " real threads");
    rep.add("sched.modelled_makespan_s", schedule.makespanSec, "s",
            Kind::Modelled, "cost model, not wall clock");
    rep.add("sched.modelled_over_measured", ratio(schedule.makespanSec,
                                                  relink_s),
            "ratio", Kind::Modelled, "modelled makespan / measured relink_s");
}

/** The median of @p samples, as metric @p name. */
void
addMedian(Report &rep, const std::string &name,
          const std::vector<double> &samples)
{
    rep.add(name, relinkbench::median(samples), "s", Kind::Measured,
            "median of " + std::to_string(samples.size()));
}

/** The tail of @p samples, as metric @p name, when one qualifies. */
void
addTail(Report &rep, const std::string &name,
        const std::vector<double> &samples)
{
    relinkbench::Tail tail = relinkbench::tailOf(samples);
    if (tail.found)
        rep.add(name, tail.value, "s", Kind::Measured,
                "p" + std::to_string(tail.percentile) + ", " +
                    std::to_string(tail.beyond) + " of " +
                    std::to_string(samples.size()) + " samples beyond");
}

void
addCommonEndToEnd(Report &rep, const Checks &checks,
                  const std::vector<double> &setup_times)
{
    rep.add("setup_s", relinkbench::median(setup_times), "s", Kind::Measured,
            "median of " + std::to_string(setup_times.size()) + " set-ups");
    rep.add("peak_rss_mb", relinkbench::peakRssMiB(), "MiB", Kind::Measured,
            "getrusage peak at the end of the run");
    rep.add("failed_frac",
            ratio(static_cast<double>(checks.failed),
                  static_cast<double>(checks.attempted)),
            "ratio", Kind::Exact,
            std::to_string(checks.failed) + " of " +
                std::to_string(checks.attempted) + " operations");
}

/** The per-layer tail every workload shares. */
void
addRunLayers(Report &rep, const Tracer &tracer,
             const std::vector<double> &rss, double relink_untraced,
             double relink_traced)
{
    addLayerTimes(rep, tracer);
    rep.add("relink_s", relink_untraced, "s", Kind::Measured,
            "untraced, in this run; beside the modelled makespan");
    rep.add("build.rss_growth_mb_per_op", relinkbench::slopePerSample(rss),
            "MiB", Kind::Measured,
            "least-squares slope of RSS after each of " +
                std::to_string(rss.size()) + " untraced operations");
    rep.add("trace.overhead_s", relink_traced - relink_untraced, "s",
            Kind::Measured,
            "traced minus untraced median relink_s in this run");
}

// ---------------------------------------------------------------------------
// cold-search and warm-bigtable

struct RelinkSetup
{
    std::unique_ptr<buildsys::Workflow> wf;
    profile::Profile opProfile; ///< The profile each operation supplies.
    uint64_t driftedFunctions = 0;
};

/**
 * Set-up: generate the program, build Phase 2, collect the profile and
 * write the seed cache image — Phase 2 objects only for the cold
 * workload, a whole cold relink for the warm one.
 */
RelinkSetup
setUpRelink(const workload::WorkloadConfig &cfg, bool warm, uint64_t seed,
            const std::string &image, Tracer &tracer, Checks &checks)
{
    RelinkSetup s;
    s.wf = std::make_unique<buildsys::Workflow>(cfg);
    {
        auto span = tracer.span("workload.generate");
        s.wf->program();
    }
    {
        auto span = tracer.span("build.phase2");
        s.wf->metadataBinary();
    }
    {
        // The seed picks the load test's input stream; seed 0 is the
        // workload's own profiling run.
        auto span = tracer.span("sim.profile");
        sim::MachineOptions opts = workload::profileOptions(cfg);
        opts.seed += seed * 0x9e3779b97f4a7c15ull;
        s.wf->overrideProfile(sim::run(s.wf->metadataBinary(), opts).profile);
    }
    if (warm) {
        auto span = tracer.span("build.relink");
        checks.expect(s.wf->verifyReport().clean(),
                      "set-up relink verifies clean");
    }
    {
        auto span = tracer.span("build.cache_save");
        checks.expect(s.wf->saveCacheFile(image),
                      "set-up writes the cache image");
    }
    if (warm)
        s.opProfile = makeDriftedProfile(s.wf->profile(),
                                         s.wf->metadataBinary(), seed,
                                         &s.driftedFunctions);
    else
        s.opProfile = s.wf->profile();
    return s;
}

/** One run's recorders: spans, output checks and metrics. */
struct Run
{
    Tracer tracer;
    Tracer untraced{false};
    Checks checks;
    Report rep;

    explicit Run(bool traced) : tracer(traced) {}
};

void
runRelinkWorkload(const Args &args, bool warm, Run &run)
{
    workload::WorkloadConfig cfg =
        workload::configByName(warm ? "bigtable" : "search");
    cfg.jobs = kJobs;
    const std::string image = args.workdir + "/" + args.workload + ".cache";
    const std::string out_image =
        args.workdir + "/" + args.workload + ".out.cache";
    Checks &checks = run.checks;
    Report &rep = run.rep;

    std::vector<double> setup_times;
    RelinkSetup setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        setup = RelinkSetup();
        double t0 = nowSec();
        setup = setUpRelink(cfg, warm, args.seed, image, run.tracer, checks);
        setup_times.push_back(nowSec() - t0);
    }

    // The reference every operation must reproduce byte for byte: a
    // relink of the same inputs made in set-up, without the image.
    linker::Executable reference;
    if (warm) {
        buildsys::Workflow ref(cfg);
        ref.overrideProgram(workload::generate(cfg));
        ref.overrideProfile(setup.opProfile);
        reference = ref.propellerBinary();
    } else {
        reference = setup.wf->propellerBinary();
    }
    const Quality quality =
        evaluate(setup.wf->baseline(), reference, cfg, checks);
    const buildsys::CacheStats &setup_layouts = setup.wf->layoutCacheStats();
    const uint64_t layout_lookups = setup_layouts.hits + setup_layouts.misses;
    const double image_mb = relinkbench::fileMiB(image);
    setup.wf.reset();

    std::vector<double> rss;
    sched::ScheduleReport schedule;
    double graph_wall = 0.0;
    int next_op = 0;
    auto op = [&](Tracer &t) {
        // The program and profile are the operation's inputs: made
        // before the clock starts, like the profile a real relink reads.
        ir::Program prog = workload::generate(cfg);
        profile::Profile prof = setup.opProfile;
        auto wf = std::make_unique<buildsys::Workflow>(cfg);
        checks.beginOp();
        bool loaded = false;
        bool saved = true;
        double t0 = nowSec();
        {
            auto span = t.span("op", next_op);
            {
                auto s = t.span("build.cache_load", next_op);
                loaded = wf->loadCacheFile(image);
            }
            wf->overrideProgram(std::move(prog));
            wf->overrideProfile(std::move(prof));
            double g0 = nowSec();
            {
                auto s = t.span("build.relink", next_op);
                wf->verifyReport();
            }
            graph_wall = nowSec() - g0;
            if (warm) {
                auto s = t.span("build.cache_save", next_op);
                saved = wf->saveCacheFile(out_image);
            }
        }
        double dt = nowSec() - t0;
        checks.expect(loaded && saved, "cache image loads and saves");
        checks.expect(wf->verifyReport().clean(), "relink verifies clean");
        checks.expect(wf->propellerBinary().text == reference.text,
                      "shipped text matches the set-up relink");
        const buildsys::CacheStats &layouts = wf->layoutCacheStats();
        checks.expect(layouts.hits + layouts.misses == layout_lookups,
                      "every hot function's layout is looked up");
        checks.expect(layouts.misses ==
                          (warm ? setup.driftedFunctions : layout_lookups),
                      "layout misses are exactly the drifted functions "
                      "(warm) or all of them (cold)");
        schedule = wf->relinkSchedule();
        checks.endOp();
        ++next_op;
        wf.reset();
        return dt;
    };

    double phase_s = args.trace ? args.seconds / 2.0 : args.seconds;
    std::vector<double> times = runFor(phase_s, kMinOps, [&] {
        double dt = op(run.untraced);
        rss.push_back(relinkbench::currentRssMiB());
        return dt;
    });
    const double relink_s = relinkbench::median(times);

    if (!args.trace) {
        addCommonEndToEnd(rep, checks, setup_times);
        addMedian(rep, "relink_s", times);
        addTail(rep, "relink_tail_s", times);
        addQuality(rep, quality, false);
    } else {
        std::vector<double> traced =
            runFor(phase_s, kMinOps, [&] { return op(run.tracer); });
        addSchedule(rep, schedule, graph_wall, relink_s);

        // One staged relink, then one probe of every layer on its inputs.
        buildsys::Workflow wf(cfg);
        wf.overrideProgram(workload::generate(cfg));
        wf.overrideProfile(setup.opProfile);
        stagedRelink(wf, image, out_image, run.tracer, checks);
        addStagedCounts(rep, wf);
        const buildsys::CacheStats &layouts = wf.layoutCacheStats();
        rep.add("build.layout_hit_rate",
                ratio(static_cast<double>(layouts.hits),
                      static_cast<double>(layouts.hits + layouts.misses)),
                "ratio", Kind::Exact);
        rep.add("build.layout_lookups",
                static_cast<double>(layouts.hits + layouts.misses), "count",
                Kind::Exact);
        rep.add("build.cache_image_mb", image_mb, "MiB", Kind::Exact,
                "seed image size");

        ProbeInputs in;
        in.cfg = &cfg;
        in.jobs = kJobs;
        in.program = &wf.program();
        in.pm = &wf.metadataBinary();
        in.wpa = &wf.wpa();
        in.verified = &wf.verifiedBinary();
        in.shippedText = &reference.text;
        in.previousPm = in.pm;
        probeLayers(in, run.tracer, rep, checks);
        addQuality(rep, quality, true);
        // The service layer does no work here; its counts read zero.
        const std::pair<const char *, const char *> service[] = {
            {"service.shards_per_epoch", "count"},
            {"service.relinks", "count"},
            {"service.drift_crossings", "count"},
            {"service.layout_warm_frac", "ratio"},
            {"service.relink_attempts", "count"},
        };
        for (const auto &[name, unit] : service)
            rep.add(name, 0.0, unit, Kind::Exact,
                    "no fleet service in this workload");
        addRunLayers(rep, run.tracer, rss, relink_s,
                     relinkbench::median(traced));
    }

    std::filesystem::remove(image);
    std::filesystem::remove(out_image);
}

// ---------------------------------------------------------------------------
// fleet-bigtable

/** Exact counts of one fleet lifetime. */
struct FleetCounts
{
    uint64_t shards = 0;
    uint64_t crossings = 0;
    uint64_t relinks = 0;
    uint64_t attempts = 0;
    uint64_t layoutHits = 0;
    uint64_t layoutMisses = 0;
    uint64_t layoutPrimed = 0;
};

FleetCounts
countFleet(const fleet::FleetService &service)
{
    FleetCounts c;
    for (const fleet::EpochStats &es : service.history()) {
        c.shards += es.shardsIngested;
        c.crossings += es.relinked ? 1 : 0;
    }
    for (const fleet::RelinkRecord &r : service.relinks()) {
        ++c.relinks;
        c.attempts += r.attempts;
        c.layoutHits += r.layoutHits;
        c.layoutMisses += r.layoutMisses;
        c.layoutPrimed += r.layoutPrimedHits;
    }
    return c;
}

/** Wall times of fleet lifetimes run under one tracing mode. */
struct FleetSamples
{
    std::vector<double> setup;
    std::vector<double> relink;
    std::vector<double> ingest;
    /** Per lifetime, the mean of its relink epochs. */
    std::vector<double> relinkMean;
};

/**
 * Replay the relink @p service just made, one stage at a time, from
 * the cache image it started from (@p image), and probe every layer on
 * its inputs.  The replay must reproduce the shipped binary.
 */
void
replayFleetRelink(const fleet::FleetService &service,
                  const fleet::FleetOptions &opts, const std::string &image,
                  const std::string &save_path, Run &run)
{
    const uint32_t target = service.targetVersion();
    buildsys::Workflow wf(opts.base);
    wf.overrideProgram(fleet::makeVersionProgram(opts, target));
    profile::Profile stamp;
    stamp.binaryHash = service.versionBinary(target).identityHash;
    stamp.totalRetired = 1;
    wf.overrideProfile(std::move(stamp));
    wf.overrideDcfg(service.lastRelinkDcfg());
    wf.setLayoutPrimeFunctions(service.lastPrimeFunctions());
    stagedRelink(wf, image, save_path, run.tracer, run.checks);
    run.checks.expect(wf.propellerBinary().text ==
                          service.shippedBinary().text,
                      "staged replay reproduces the shipped binary");
    addStagedCounts(run.rep, wf);
    run.rep.add("build.cache_image_mb", relinkbench::fileMiB(image), "MiB",
                Kind::Exact, "image the replayed relink loaded");

    ProbeInputs in;
    in.cfg = &opts.base;
    in.jobs = opts.base.jobs;
    in.program = &service.versionProgram(target);
    in.pm = &service.versionBinary(target);
    in.wpa = &wf.wpa();
    in.verified = &wf.verifiedBinary();
    in.shippedText = &service.shippedBinary().text;
    in.previousPm = &service.versionBinary(target > 0 ? target - 1 : 0);
    probeLayers(in, run.tracer, run.rep, run.checks);
}

void
runFleetWorkload(const Args &args, Run &run)
{
    fleet::FleetOptions opts;
    opts.base = workload::configByName("bigtable");
    opts.base.jobs = 1;
    opts.machines = kFleetMachines;
    opts.shardSamples = kShardSamples;
    opts.arrivalShuffleSeed = args.seed;
    opts.cachePath = args.workdir + "/fleet-bigtable.cache";
    const std::string before_epoch =
        args.workdir + "/fleet-bigtable.prev.cache";
    const std::string replay_out = args.workdir + "/fleet-bigtable.out.cache";
    Checks &checks = run.checks;
    Report &rep = run.rep;

    FleetSamples untraced;
    FleetSamples traced;
    std::vector<double> rss;
    std::optional<FleetCounts> counts;
    std::unique_ptr<linker::Executable> shipped;
    uint32_t shipped_target = 0;
    bool replayed = false;
    sched::ScheduleReport replay_schedule;
    double replay_wall = 0.0;

    // One lifetime: a fresh service (the set-up), then kFleetEpochs
    // epochs, each one operation.  The first relink after the first
    // release is replayed when @p replay is set.
    auto lifetime = [&](Tracer &t, FleetSamples &out, bool replay) {
        std::filesystem::remove(opts.cachePath);
        double t0 = nowSec();
        fleet::FleetService service(opts);
        out.setup.push_back(nowSec() - t0);
        const bool first = !counts;
        const size_t relinks_at_start = out.relink.size();
        uint32_t last_target = 0;
        for (uint32_t e = 0; e < kFleetEpochs; ++e) {
            if (e >= kFirstRelease &&
                (e - kFirstRelease) % kReleaseCadence == 0)
                service.setTargetVersion(service.addVersion());
            const bool replay_now = replay && !replayed && e >= kFirstRelease;
            if (replay_now)
                std::filesystem::copy_file(
                    opts.cachePath, before_epoch,
                    std::filesystem::copy_options::overwrite_existing);
            const size_t relinks_before = service.relinks().size();
            checks.beginOp();
            double s0 = nowSec();
            {
                auto span = t.span("op", static_cast<int>(e));
                service.stepEpoch();
            }
            double dt = nowSec() - s0;
            const auto &records = service.relinks();
            for (size_t r = relinks_before; r < records.size(); ++r)
                checks.expect(records[r].verifierClean &&
                                  !records[r].quarantined,
                              "every relink ships a verifier-clean binary");
            checks.expect(records.size() == service.driftCrossings(),
                          "relinks equal drift crossings");
            checks.expect(!service.degraded(), "service is not degraded");
            const bool relinked = records.size() > relinks_before;
            (relinked ? out.relink : out.ingest).push_back(dt);
            if (relinked)
                last_target = service.targetVersion();
            checks.endOp();
            if (first)
                rss.push_back(relinkbench::currentRssMiB());
            if (replay_now && relinked) {
                replayFleetRelink(service, opts, before_epoch, replay_out,
                                  run);
                replay_schedule = records.back().schedule;
                replay_wall = dt;
                replayed = true;
            }
        }
        double sum = 0.0;
        for (size_t i = relinks_at_start; i < out.relink.size(); ++i)
            sum += out.relink[i];
        out.relinkMean.push_back(
            ratio(sum, static_cast<double>(out.relink.size() -
                                           relinks_at_start)));
        if (first) {
            counts = countFleet(service);
            checks.expect(service.generation() > 0, "a relink shipped");
            if (service.generation() > 0)
                shipped = std::make_unique<linker::Executable>(
                    service.shippedBinary());
            shipped_target = last_target;
        }
    };

    // Whole lifetimes until the time is up: every lifetime of one seed
    // is the same, so the samples mix the same epochs in the same
    // proportion however many lifetimes fit.
    const double phase_s = args.trace ? args.seconds / 2.0 : args.seconds;
    double deadline = nowSec() + phase_s;
    do {
        lifetime(run.untraced, untraced, false);
    } while (nowSec() < deadline);
    if (args.trace) {
        deadline = nowSec() + phase_s;
        do {
            lifetime(run.tracer, traced, true);
        } while (nowSec() < deadline);
        checks.expect(replayed, "a relink after the release was replayed");
    }
    for (const std::string &path : {opts.cachePath, before_epoch, replay_out})
        std::filesystem::remove(path);

    Quality quality;
    if (shipped) {
        buildsys::Workflow base_wf(opts.base);
        base_wf.overrideProgram(
            fleet::makeVersionProgram(opts, shipped_target));
        quality = evaluate(base_wf.baseline(), *shipped, opts.base, checks);
    }

    // A lifetime's relinks are a fixed mix of different relinks (cold,
    // warm, after a release), so their pooled median falls between
    // clusters; the median of the lifetimes' means is steady.
    const double relink_s = relinkbench::median(untraced.relinkMean);
    if (!args.trace) {
        addCommonEndToEnd(rep, checks, untraced.setup);
        rep.add("relink_s", relink_s, "s", Kind::Measured,
                "median over " + std::to_string(untraced.relinkMean.size()) +
                    " lifetimes of the mean of each lifetime's relink "
                    "epochs");
        addTail(rep, "relink_tail_s", untraced.relink);
        addMedian(rep, "ingest_epoch_s", untraced.ingest);
        addTail(rep, "ingest_epoch_tail_s", untraced.ingest);
        addQuality(rep, quality, false);
        return;
    }
    addQuality(rep, quality, true);
    addSchedule(rep, replay_schedule, replay_wall, relink_s);
    const FleetCounts &c = *counts;
    const std::string note =
        "one lifetime of " + std::to_string(kFleetEpochs) + " epochs";
    const double lookups = static_cast<double>(c.layoutHits + c.layoutMisses);
    rep.add("build.layout_hit_rate",
            ratio(static_cast<double>(c.layoutHits), lookups), "ratio",
            Kind::Exact, note);
    rep.add("build.layout_lookups", lookups, "count", Kind::Exact, note);
    rep.add("service.shards_per_epoch",
            static_cast<double>(c.shards) / kFleetEpochs, "count",
            Kind::Exact, note);
    rep.add("service.relinks", static_cast<double>(c.relinks), "count",
            Kind::Exact, note);
    rep.add("service.drift_crossings", static_cast<double>(c.crossings),
            "count", Kind::Exact, note);
    rep.add("service.layout_warm_frac",
            ratio(static_cast<double>(c.layoutHits + c.layoutPrimed),
                  lookups),
            "ratio", Kind::Exact, "exact + primed layout hits, " + note);
    rep.add("service.relink_attempts", static_cast<double>(c.attempts),
            "count", Kind::Exact, note);
    rep.add("service.ingest_epoch_s", relinkbench::median(untraced.ingest),
            "s", Kind::Measured, "untraced epochs without a relink");
    addRunLayers(rep, run.tracer, rss, relink_s,
                 relinkbench::median(traced.relinkMean));
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (int rc = parseArgs(argc, argv, &args))
        return rc;
    std::error_code ec;
    std::filesystem::create_directories(args.workdir, ec);
    if (ec)
        return usage("cannot create --workdir " + args.workdir);

    Run run(args.trace);
    std::printf("# relinkbench workload=%s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    if (args.workload == "fleet-bigtable")
        runFleetWorkload(args, run);
    else
        runRelinkWorkload(args, args.workload == "warm-bigtable", run);

    if (args.trace) {
        std::string path = args.workdir + "/trace-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".json";
        run.checks.expect(run.tracer.write(path), "trace file is written");
        std::printf("# spans written to %s\n", path.c_str());
        run.tracer.printSelfTimes();
    }
    run.rep.printTable();
    std::fflush(stdout);
    run.rep.printJson(run.checks.ok, run.checks.attempted,
                      run.checks.failed);
    return run.checks.ok ? 0 : 1;
}
