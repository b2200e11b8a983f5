#include "build/workflow.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string_view>

#include "build/journal.h"
#include "linker/linker.h"
#include "propeller/addr_map_index.h"
#include "propeller/profile_mapper.h"
#include "sim/machine.h"
#include "support/check.h"
#include "support/hash.h"

namespace propeller::buildsys {

namespace {

/** Stream one IR instruction's fields, packed into words. */
void
hashInst(ContentHasher &h, const ir::Inst &inst)
{
    // The packing gives every field its own bits; a wider field type
    // must get a word of its own.
    static_assert(sizeof(inst.kind) == 1 && sizeof(inst.reg) == 1 &&
                  sizeof(inst.bias) == 1 && sizeof(inst.imm) == 4 &&
                  sizeof(inst.trueTarget) == 4 &&
                  sizeof(inst.falseTarget) == 4 &&
                  sizeof(inst.branchId) == 4 && sizeof(inst.target) == 4);
    h.word(static_cast<uint64_t>(inst.kind) | uint64_t{inst.reg} << 8 |
           uint64_t{inst.bias} << 16 | uint64_t{inst.periodic} << 24 |
           uint64_t{inst.imm} << 32);
    h.word(inst.trueTarget | uint64_t{inst.falseTarget} << 32);
    h.word(inst.branchId | uint64_t{inst.target} << 32);
    h.string(inst.callee);
}

/** Total IR instructions in a module (the codegen cost driver). */
uint64_t
moduleInsts(const ir::Module &mod)
{
    uint64_t insts = 0;
    for (const auto &fn : mod.functions)
        insts += fn->instCount();
    return insts;
}

/** Modelled peak memory of one backend action. */
uint64_t
codegenActionMemory(uint64_t insts, uint64_t object_bytes)
{
    // Lowering state per instruction plus the in-flight object image.
    return insts * 200 + object_bytes * 3;
}

/** Read cluster directives straight out of a whole-program map. */
std::function<const codegen::ClusterSpec *(const std::string &)>
lookupIn(const codegen::ClusterMap &map)
{
    return [&map](const std::string &fn) -> const codegen::ClusterSpec * {
        auto it = map.find(fn);
        return it == map.end() ? nullptr : &it->second;
    };
}

} // namespace

// ---- CostModel ------------------------------------------------------

double
CostModel::makespan(const std::vector<double> &costs,
                    uint32_t workers) const
{
    if (costs.empty() || workers == 0)
        return 0.0;
    double total = 0.0;
    double longest = 0.0;
    for (double cost : costs) {
        double with_overhead = cost + actionOverheadSec;
        total += with_overhead;
        longest = std::max(longest, with_overhead);
    }
    return total / static_cast<double>(workers) + longest;
}

// ---- Workflow -------------------------------------------------------

Workflow::Workflow(workload::WorkloadConfig config)
    : config_(std::move(config))
{
    limits_.workers = config_.distributedBuild ? 40 : 8;
}

const ir::Program &
Workflow::program()
{
    if (!program_)
        program_ = workload::generate(config_);
    return *program_;
}

uint64_t
Workflow::moduleHash(size_t module_index) const
{
    // Memoized per slot: only module module_index's codegen task reads
    // or writes its slot, so hashes fill in from every task at once.
    std::optional<uint64_t> &slot = moduleHashes_[module_index];
    if (!slot) {
        // Every list is count-prefixed and every string
        // length-prefixed, so no two modules stream the same words.
        const ir::Module &mod = *program_->modules[module_index];
        ContentHasher h;
        h.string(mod.name);
        h.word(mod.rodataBytes);
        h.word(mod.functions.size());
        for (const auto &fn : mod.functions) {
            h.string(fn->name);
            h.word(uint64_t{fn->isHandAsm} |
                   uint64_t{fn->hasIntegrityCheck} << 1);
            h.word(fn->blocks.size());
            for (const auto &bb : fn->blocks) {
                h.word(bb->id | uint64_t{bb->isLandingPad} << 32);
                h.word(bb->insts.size());
                for (const auto &inst : bb->insts)
                    hashInst(h, inst);
            }
        }
        slot = h.finish();
    }
    return *slot;
}

uint64_t
Workflow::actionKey(size_t module_index,
                    const codegen::ClusterMap *clusters,
                    const core::PrefetchMap *prefetches,
                    bool emit_addr_map) const
{
    const ir::Module &mod = *program_->modules[module_index];
    ContentHasher key;
    key.word(moduleHash(module_index));
    key.word(emit_addr_map ? 1 : 0);

    // Only the directives that *apply to this module* enter the
    // fingerprint.  A module none of whose functions have cluster
    // directives (and none of whose load sites are prefetch targets)
    // keeps its Phase 2 fingerprint — that is the content-cache property
    // Phase 4 relies on.
    if (clusters) {
        for (const auto &fn : mod.functions) {
            auto it = clusters->find(fn->name);
            if (it == clusters->end())
                continue;
            key.string(fn->name);
            key.word(static_cast<uint64_t>(it->second.coldIndex));
            key.word(it->second.clusters.size());
            for (const auto &cluster : it->second.clusters) {
                key.word(cluster.size());
                for (uint32_t id : cluster)
                    key.word(id);
            }
        }
    }
    // Ends the cluster entries: no string is 2^64 - 1 bytes long.
    key.word(~uint64_t{0});
    if (prefetches) {
        for (const auto &fn : mod.functions) {
            for (const auto &bb : fn->blocks) {
                for (const auto &inst : bb->insts) {
                    if (inst.kind != ir::InstKind::Load)
                        continue;
                    auto it = prefetches->find(
                        static_cast<uint16_t>(inst.imm));
                    if (it == prefetches->end())
                        continue;
                    key.word(it->first | uint64_t{it->second} << 16);
                }
            }
        }
    }
    return key.finish();
}

/** Per-module slots and ordered commit state of one codegen stage. */
struct Workflow::CodegenStage
{
    ClusterLookup clusters;
    const core::PrefetchMap *prefetches = nullptr;
    CompileBatch batch;                 ///< objects: one slot per module.
    std::vector<sched::TaskId> tasks;   ///< One codegen task per module.
    std::vector<char> isHit;            ///< Served from the cache.
    std::vector<std::vector<std::string>> dropped; ///< Sanitized away.
    std::vector<std::string> rejectLines;
    std::vector<std::string> retryLines;
    std::vector<double> missCosts;      ///< In module order.
    sched::OrderedSink sink;
    uint64_t corruptionsBefore = 0;
};

void
Workflow::addCodegenStage(sched::TaskGraph &graph, CodegenStage &stage,
                          ClusterLookup clusters,
                          const core::PrefetchMap *prefetches,
                          const std::string &phase)
{
    const ir::Program &prog = program();
    const size_t nmod = prog.modules.size();
    moduleHashes_.resize(nmod); // One memo slot per codegen task.
    stage.clusters = std::move(clusters);
    stage.prefetches = prefetches;
    stage.batch.objects.resize(nmod);
    stage.isHit.assign(nmod, 0);
    stage.dropped.resize(nmod);
    stage.tasks.resize(nmod);
    stage.corruptionsBefore = cache_.stats().corruptions;

    for (size_t i = 0; i < nmod; ++i) {
        stage.tasks[i] = graph.add(
            [this, &graph, &stage, &prog, i] {
                const ir::Module &mod = *prog.modules[i];
                codegen::Options copts;
                copts.emitAddrMapSection = true;
                copts.prefetches = stage.prefetches;

                // This module's restriction of the cluster map.
                // Sanitation validates entries independently, so the
                // sanitized restriction equals the restriction of the
                // sanitized full map, and the action key (which reads
                // only the module's own entries) is the full map's.
                codegen::ClusterMap submap;
                if (stage.clusters) {
                    for (const auto &fn : mod.functions)
                        if (const codegen::ClusterSpec *spec =
                                stage.clusters(fn->name))
                            submap.emplace(fn->name, *spec);
                    stage.dropped[i] =
                        codegen::sanitizeClusterMap(prog, submap);
                    copts.bbSections = codegen::BbSectionsMode::Clusters;
                    copts.clusters = &submap;
                }
                const uint64_t key =
                    actionKey(i, copts.clusters, stage.prefetches, true);

                // A hit must survive both the cache's byte-hash check
                // (lookup returns nullptr on mismatch) and structural
                // deserialization; either failure evicts the entry and
                // the action re-executes as a miss.
                elf::ObjectFile &obj = stage.batch.objects[i];
                bool hit = false;
                std::string reject;
                if (const std::vector<uint8_t> *bytes = cache_.lookup(key)) {
                    auto cached = elf::ObjectFile::deserializeChecked(*bytes);
                    if (cached.ok()) {
                        obj = std::move(cached).value();
                        hit = true;
                    } else {
                        cache_.evictCorrupt(key);
                        reject = "cache artifact rejected (" + mod.name +
                                 "): " + cached.status().toString();
                    }
                }
                if (!hit)
                    obj = codegen::compileModule(mod, copts);
                stage.isHit[i] = hit ? 1 : 0;

                const uint64_t insts = moduleInsts(mod);
                std::vector<uint8_t> stored =
                    hit ? std::vector<uint8_t>() : obj.serialize();

                // Order-sensitive side effects (cache population, retry
                // accounting, failure attribution, cost-model inputs)
                // commit in module order regardless of which worker
                // finished first.
                stage.sink.submit(i, [this, &graph, &stage, &obj, &mod, i,
                                      key, hit, insts,
                                      reject = std::move(reject),
                                      stored = std::move(stored)]() mutable {
                    if (!reject.empty())
                        stage.rejectLines.push_back(std::move(reject));
                    if (hit) {
                        stage.batch.cachedNames.push_back(obj.name);
                        ++stage.batch.cacheHits;
                        graph.setCost(stage.tasks[i], 0.0);
                        return;
                    }
                    cache_.put(key, std::move(stored));
                    double base = static_cast<double>(insts) *
                                  cost_.backendSecPerInst;

                    // Transient executor failures (injected via hooks)
                    // are retried with deterministic exponential
                    // backoff; each failed attempt pays the action cost
                    // again plus the backoff.  An action that exhausts
                    // its budget falls back to the coordinator — the
                    // build degrades in makespan, never in output.
                    double cost = base;
                    if (hooks_) {
                        uint32_t attempts = limits_.maxActionRetries + 1;
                        uint32_t attempt = 1;
                        while (attempt <= attempts &&
                               hooks_->failAction(mod.name, attempt)) {
                            cost += base +
                                    limits_.retryBackoffSec *
                                        static_cast<double>(
                                            1u << (attempt - 1));
                            ++stage.batch.retries;
                            ++attempt;
                        }
                        if (attempt > attempts) {
                            stage.retryLines.push_back(
                                "retries exhausted, ran on coordinator: " +
                                mod.name);
                            cost += base;
                        }
                    }
                    stage.missCosts.push_back(cost);
                    ++stage.batch.actions;
                    stage.batch.peakActionMemory = std::max(
                        stage.batch.peakActionMemory,
                        codegenActionMemory(insts, obj.sizeInBytes()));
                    graph.setCost(stage.tasks[i],
                                  cost + cost_.actionOverheadSec);
                });
            },
            {"codegen:" + prog.modules[i]->name, phase, 0.0});
    }
}

Workflow::CompileBatch
Workflow::finishCodegenStage(CodegenStage &stage)
{
    CompileBatch batch = std::move(stage.batch);
    std::vector<std::string> dropped;
    for (const auto &names : stage.dropped)
        dropped.insert(dropped.end(), names.begin(), names.end());
    // Sorting the per-module drops reproduces the map order of
    // sanitizing the whole map at once.
    std::sort(dropped.begin(), dropped.end());
    batch.quarantined = static_cast<uint32_t>(dropped.size());
    for (const auto &name : dropped)
        batch.failures.push_back("cluster directive dropped: " + name);
    batch.failures.insert(batch.failures.end(), stage.rejectLines.begin(),
                          stage.rejectLines.end());
    batch.failures.insert(batch.failures.end(), stage.retryLines.begin(),
                          stage.retryLines.end());
    batch.cacheCorruptions = static_cast<uint32_t>(
        cache_.stats().corruptions - stage.corruptionsBefore);
    batch.makespanSec = cost_.makespan(stage.missCosts, limits_.workers);
    return batch;
}

Workflow::CompileBatch
Workflow::compileModules(const codegen::ClusterMap *clusters,
                         const core::PrefetchMap *prefetches)
{
    CodegenStage stage;
    sched::TaskGraph graph;
    addCodegenStage(graph, stage,
                    clusters ? lookupIn(*clusters) : ClusterLookup(),
                    prefetches, "codegen");
    sched::Scheduler({config_.jobs, limits_.workers}).run(graph);
    if (hooks_)
        hooks_->onCachePopulated(cache_);

    // A directive naming no function of the program belongs to no
    // module's restriction; it is dropped like any other invalid one.
    if (clusters) {
        for (const auto &entry : *clusters)
            if (!program().findFunction(entry.first))
                stage.dropped.push_back({entry.first});
    }
    return finishCodegenStage(stage);
}

void
Workflow::recordCodegenReport(const std::string &phase,
                              const CompileBatch &batch)
{
    PhaseReport report;
    report.phase = phase;
    report.makespanSec = batch.makespanSec;
    report.actions = batch.actions;
    report.cacheHits = batch.cacheHits;
    report.peakActionMemory = batch.peakActionMemory;
    report.memoryLimitExceeded =
        batch.peakActionMemory > limits_.ramPerAction;
    report.retries = batch.retries;
    report.cacheCorruptions = batch.cacheCorruptions;
    report.quarantined = batch.quarantined;
    report.failures = batch.failures;
    reports_[phase] = std::move(report);
}

PhaseReport
Workflow::makeLinkReport(const std::string &phase,
                         const std::vector<LinkInput> &inputs,
                         const linker::LinkStats &stats,
                         const std::vector<std::string> &cached_names)
    const
{
    std::set<std::string> cached(cached_names.begin(),
                                 cached_names.end());
    double cost = 0.0;
    for (const auto &input : inputs) {
        double bytes = static_cast<double>(input.bytes);
        // Cold cache hits stream from the content store; fresh
        // outputs must be gathered from the workers that built them.
        cost += bytes * (cached.count(input.name)
                             ? cost_.fetchCachedSecPerByte
                             : cost_.fetchFreshSecPerByte);
        cost += bytes * cost_.linkSecPerByte;
    }
    PhaseReport report;
    report.phase = phase;
    report.makespanSec = cost_.makespan({cost}, 1);
    report.actions = 1;
    report.peakActionMemory = stats.peakMemory;
    report.memoryLimitExceeded = stats.peakMemory > limits_.ramPerAction;
    report.quarantined = stats.quarantinedFunctions +
                         stats.addrMapsRejected;
    for (const auto &name : stats.quarantined)
        report.failures.push_back("function quarantined: " + name);
    for (const auto &obj : stats.rejectedAddrMapObjects)
        report.failures.push_back(".bb_addr_map rejected: " + obj);
    return report;
}

linker::Executable
Workflow::linkWithReport(const std::vector<elf::ObjectFile> &objects,
                         const linker::Options &opts,
                         const std::string &phase,
                         const std::vector<std::string> &cached_names)
{
    // Each object is gathered on its own; the link resolves, lays out
    // and emits.
    std::vector<linker::PreparedObject> prepared(objects.size());
    sched::parallelFor(config_.jobs, objects.size(), [&](size_t i) {
        prepared[i] = linker::prepareObject(objects[i], opts);
    });
    linker::LinkStats stats;
    linker::Executable exe = linker::link(prepared, opts, &stats);
    if (!phase.empty()) {
        std::vector<LinkInput> inputs;
        inputs.reserve(objects.size());
        for (const auto &obj : objects)
            inputs.push_back({obj.name, obj.sizeInBytes()});
        reports_[phase] = makeLinkReport(phase, inputs, stats,
                                         cached_names);
    }
    return exe;
}

linker::Options
Workflow::linkOptions()
{
    linker::Options opts;
    opts.outputName = config_.name;
    opts.entrySymbol = program().entryFunction;
    opts.hugePagesText = config_.hugePages;
    opts.threads = config_.jobs;
    return opts;
}

core::LayoutOptions
Workflow::defaultLayoutOptions() const
{
    // Concurrency is not a layout option: WorkloadConfig::jobs is passed
    // to every parallel stage explicitly.
    return core::LayoutOptions{};
}

const std::vector<elf::ObjectFile> &
Workflow::phase2Objects()
{
    if (!phase2Objects_) {
        const ir::Program &prog = program();

        // Phase 1 (modelled): build and cache the optimized IR.
        {
            std::vector<double> costs;
            uint64_t peak = 0;
            for (const auto &mod : prog.modules) {
                uint64_t insts = moduleInsts(*mod);
                costs.push_back(static_cast<double>(insts) *
                                cost_.irGenSecPerInst);
                peak = std::max(peak, insts * 96);
            }
            PhaseReport report;
            report.phase = "phase1";
            report.makespanSec = cost_.makespan(costs, limits_.workers);
            report.actions = static_cast<uint32_t>(prog.modules.size());
            report.peakActionMemory = peak;
            report.memoryLimitExceeded = peak > limits_.ramPerAction;
            reports_["phase1"] = std::move(report);
        }

        // Phase 2: every backend runs (the cache is empty), with BB
        // address map metadata attached.
        CompileBatch batch = compileModules(nullptr, nullptr);
        recordCodegenReport("phase2.codegen", batch);
        phase2Objects_ = std::move(batch.objects);

        // Fault seam: damage object metadata between codegen and the
        // links — the window where objects sit on distributed storage.
        if (hooks_)
            hooks_->onPhase2Objects(*phase2Objects_);
    }
    return *phase2Objects_;
}

const linker::Executable &
Workflow::baseline()
{
    if (!baseline_) {
        linker::Options opts = linkOptions();
        opts.outputName = config_.name + ".base";
        opts.stripAddrMaps = true;
        baseline_ =
            linkWithReport(phase2Objects(), opts, "baseline.link", {});
    }
    return *baseline_;
}

const linker::Executable &
Workflow::metadataBinary()
{
    if (!metadataBinary_) {
        linker::Options opts = linkOptions();
        opts.outputName = config_.name + ".pm";
        metadataBinary_ =
            linkWithReport(phase2Objects(), opts, "phase2.link", {});
    }
    return *metadataBinary_;
}

const linker::Executable &
Workflow::boltInputBinary()
{
    if (!boltInputBinary_) {
        linker::Options opts = linkOptions();
        opts.outputName = config_.name + ".bm";
        opts.stripAddrMaps = true;
        opts.emitRelocs = true;
        boltInputBinary_ =
            linkWithReport(phase2Objects(), opts, "phase2.link.bm", {});
    }
    return *boltInputBinary_;
}

void
Workflow::overrideProfile(profile::Profile prof)
{
    PROPELLER_CHECK(!profile_,
                    "overrideProfile after the profile was pulled");
    profile_ = std::move(prof);

    // The collection phase never ran; record a zero-cost stand-in so
    // report("phase3.collect") stays well-defined for consumers.
    PhaseReport report;
    report.phase = "phase3.collect";
    report.actions = 1;
    reports_["phase3.collect"] = std::move(report);
}

void
Workflow::overrideProgram(ir::Program prog)
{
    PROPELLER_CHECK(!program_,
                    "overrideProgram after the program was pulled");
    program_ = std::move(prog);
}

void
Workflow::overrideDcfg(core::WholeProgramDcfg dcfg)
{
    PROPELLER_CHECK(!wpa_, "overrideDcfg after the WPA ran");
    dcfgOverride_ = std::move(dcfg);
}

void
Workflow::setLayoutPrimeFunctions(std::set<std::string> functions)
{
    PROPELLER_CHECK(!wpa_,
                    "setLayoutPrimeFunctions after the WPA ran");
    primeFns_ = std::move(functions);
}

bool
Workflow::loadCacheFile(const std::string &path, uint64_t *generation)
{
    std::vector<uint8_t> file;
    if (!readFile(path, file))
        return false;
    // A torn or bit-damaged journal is "no image": the run proceeds
    // cold instead of aborting or half-loading.
    std::span<const uint8_t> payload;
    uint64_t gen = 0;
    if (!decodeJournal(file, &gen, &payload))
        return false;
    if (!cache_.deserialize(payload))
        return false;
    if (generation)
        *generation = gen;
    return true;
}

bool
Workflow::saveCacheFile(const std::string &path, uint64_t generation,
                        long crashAtByte) const
{
    return atomicWriteFile(path,
                           encodeJournal(generation, cache_.serialize()),
                           crashAtByte);
}

const profile::Profile &
Workflow::profile()
{
    if (!profile_) {
        sim::RunResult run = sim::run(metadataBinary(),
                                      workload::profileOptions(config_));
        profile_ = std::move(run.profile);

        PhaseReport report;
        report.phase = "phase3.collect";
        // Profiles come from a timed load test, not a compute action.
        report.makespanSec = config_.propTrainMinutes * 60.0;
        report.actions = 1;
        report.peakActionMemory = profile_->sizeInBytes() + (1u << 20);

        // With hooks attached the profile takes the wire path the real
        // system takes — serialized into shards, exposed to faults,
        // reloaded with per-shard validation.  Corrupt shards are
        // dropped and their samples lost; the analysis degrades
        // gracefully instead of consuming damaged counts.
        if (hooks_) {
            std::vector<std::vector<uint8_t>> shards =
                profile::serializeShards(*profile_,
                                         limits_.profileShardSamples);
            hooks_->onProfileShards(shards);
            profile::ShardLoadStats sstats;
            profile_ = profile::loadShards(shards, &sstats);
            report.quarantined = sstats.shardsRejected;
            if (sstats.shardsRejected > 0)
                report.failures.push_back(
                    "profile shards rejected: " +
                    std::to_string(sstats.shardsRejected) + "/" +
                    std::to_string(sstats.shardsTotal) + " (" +
                    sstats.firstError + ")");
            if (sstats.distinctVersions > 1)
                report.failures.push_back(
                    "profile shards span " +
                    std::to_string(sstats.distinctVersions) +
                    " binary versions; route per-version through the "
                    "stale matcher (fleet serve) instead of merging "
                    "by address");
        }
        reports_["phase3.collect"] = std::move(report);
    }
    return *profile_;
}

void
Workflow::recordWpaReport()
{
    PhaseReport report;
    report.phase = "phase3.wpa";
    report.makespanSec = cost_.makespan(
        {static_cast<double>(wpa_->stats.profileBytes) *
             cost_.wpaSecPerProfileByte +
         static_cast<double>(wpa_->stats.hotFunctions) *
             cost_.wpaSecPerHotFunction},
        1);
    report.actions = 1;
    report.peakActionMemory = wpa_->stats.peakMemory;
    report.memoryLimitExceeded =
        wpa_->stats.peakMemory > limits_.ramPerAction;
    report.quarantined = wpa_->stats.quarantined;
    for (const auto &name : wpa_->stats.quarantinedFunctions)
        report.failures.push_back("addr map quarantined: " + name);
    reports_["phase3.wpa"] = std::move(report);
}

const core::WpaResult &
Workflow::wpa()
{
    if (!wpa_)
        runRelinkGraph(RelinkStage::Wpa);
    return *wpa_;
}

void
Workflow::ensurePhase4()
{
    if (!propellerBinary_)
        runRelinkGraph(RelinkStage::Link);
}

const linker::Executable &
Workflow::propellerBinary()
{
    ensurePhase4();
    return *propellerBinary_;
}

void
Workflow::recordVerifyReport(const std::string &phase,
                             const analysis::VerifyReport &rep)
{
    PhaseReport report;
    report.phase = phase;
    report.makespanSec = cost_.makespan(
        {static_cast<double>(rep.bytesVerified) * cost_.verifySecPerByte},
        1);
    report.actions = 1;
    // Decoded instruction stream plus the per-range bookkeeping.
    report.peakActionMemory =
        rep.instructionsDecoded * 56 + rep.rangesDecoded * 96;
    report.memoryLimitExceeded =
        report.peakActionMemory > limits_.ramPerAction;
    report.quarantined =
        static_cast<uint32_t>(rep.engine.affectedFunctions().size());
    for (const auto &diag : rep.engine.diagnostics())
        report.failures.push_back(diag.render());
    reports_[phase] = std::move(report);
}

void
Workflow::ensureVerify()
{
    if (!verify_)
        runRelinkGraph(RelinkStage::Verify);
}

void
Workflow::runRelinkGraph(RelinkStage target)
{
    // Serial upstream phases (memoized; not part of the relink graph).
    const linker::Executable &pm = metadataBinary();
    const profile::Profile &prof = profile();
    const ir::Program &prog = program();
    const size_t nmod = prog.modules.size();

    const bool need_wpa = !wpa_;
    const bool need_link =
        target != RelinkStage::Wpa && !propellerBinary_;
    const bool need_verify = target == RelinkStage::Verify && !verify_;
    if (!need_wpa && !need_link && !need_verify)
        return;

    sched::TaskGraph graph;
    // Slices of the per-object and per-range fan-outs.
    const size_t chunks = std::max<size_t>(1, limits_.workers * 2);

    // ---- Phase 3: staged profile ingestion + per-function layout --------
    //
    // The WPA stages (core::WpaPipeline::addStages) are first-class graph
    // tasks, so decoding the profile overlaps whatever else the graph
    // holds.  The per-function fan-out's *shape* depends on the DCFG the
    // apply task produces, so the apply task adds the layout tasks
    // dynamically, and every codegen task takes a static edge from it.
    std::optional<core::WpaPipeline> pipe;
    core::WpaPipeline::StageTasks wpaTasks;
    std::vector<codegen::ClusterSpec> specs;
    std::map<std::string_view, size_t> dcfgIndex;
    CodegenStage cg;
    // An injected DCFG is not flow-linted (see the lint.flow task).
    const bool lint_flow =
        need_wpa ? !dcfgOverride_.has_value() : flowDcfg_.has_value();

    if (need_wpa) {
        pipe.emplace(pm, prof, defaultLayoutOptions(), config_.jobs);
        if (dcfgOverride_) {
            pipe->overrideDcfg(std::move(*dcfgOverride_));
            dcfgOverride_.reset();
        }

        // The modelled profile-conversion cost, split across the ingest
        // stages so the stage sum matches the phase3.wpa report's
        // formula.
        const uint64_t opts_fp =
            core::layoutOptionsFingerprint(defaultLayoutOptions());
        core::WpaPipeline::StagePlan plan;
        plan.profileCostSec = static_cast<double>(prof.sizeInBytes()) *
                            cost_.wpaSecPerProfileByte;
        plan.hotFunctionCostSec = cost_.wpaSecPerHotFunction;
        plan.resolveShards = std::max<size_t>(1, limits_.workers * 4);

        // The memo key: the function's CFG hash + profile counts
        // (layoutFingerprint) and the layout options.  A warm hit
        // decodes the cached layout — byte-identical to recomputing it —
        // and re-costs the task as a cache fetch; a decode failure
        // evicts and recomputes.
        plan.layout = [&, opts_fp](size_t f, sched::TaskId task) {
            const uint64_t key =
                hashCombine(pipe->layoutFingerprint(f), opts_fp);
            const uint64_t digest =
                hashCombine(pipe->layoutInputDigest(f), opts_fp);
            core::FunctionLayout fl;
            auto serve = [&](const std::vector<uint8_t> &bytes) {
                core::FunctionLayout cached;
                if (!core::decodeFunctionLayout(bytes, cached))
                    return false;
                graph.setCost(task, static_cast<double>(bytes.size()) *
                                        cost_.fetchCachedSecPerByte);
                fl = std::move(cached);
                return true;
            };
            bool hit = false;
            if (const std::vector<uint8_t> *bytes =
                    cache_.lookupLayout(key)) {
                hit = serve(*bytes);
                if (!hit)
                    cache_.evictCorruptLayout(key);
            }
            // Primed fallback: the exact memo key changed (code drift),
            // but the stale matcher vouched for this function and an
            // entry with identical *layout inputs* exists — reuse it and
            // re-home it under the new key so the next run hits primary.
            if (!hit &&
                primeFns_.count(pipe->dcfg().functions[f].function) != 0) {
                const std::vector<uint8_t> *bytes =
                    cache_.lookupLayoutPrimed(digest);
                hit = bytes != nullptr && serve(*bytes);
                if (hit) {
                    std::vector<uint8_t> copy = *bytes;
                    cache_.putLayout(key, std::move(copy), digest);
                }
            }
            if (!hit) {
                fl = pipe->layoutFunction(f);
                cache_.putLayout(key, core::encodeFunctionLayout(fl),
                                 digest);
            }
            // Codegen tasks read the spec while the merge task consumes
            // the slot, so the spec gets stable storage of its own
            // before either successor is released.
            specs[f] = fl.spec;
            return fl;
        };

        // The fine-grained release edges: a module's backend re-runs the
        // moment its last sampled function's layout lands.  Wired while every
        // codegen task is still held by its static edge from dcfg.apply.
        plan.onLayoutTasks = [&](const std::vector<sched::TaskId> &layout) {
            specs.resize(layout.size());
            for (size_t f = 0; f < layout.size(); ++f)
                dcfgIndex.emplace(pipe->dcfg().functions[f].function, f);
            for (size_t i = 0; i < cg.tasks.size(); ++i) {
                for (const auto &fn : prog.modules[i]->functions) {
                    auto it = dcfgIndex.find(fn->name);
                    if (it != dcfgIndex.end())
                        graph.addEdge(layout[it->second], cg.tasks[i]);
                }
            }
        };
        wpaTasks = pipe->addStages(graph, std::move(plan), wpa_);
    }

    // ---- Phase 4: per-module codegen + per-object link assembly ---------
    //
    // The relink links once, keeping the address maps the verifier
    // needs; the shipped binary is that link's stripped copy.
    std::vector<sched::TaskId> assembleTask;
    sched::TaskId poLink = sched::kInvalidTask;
    std::vector<linker::PreparedObject> prepared;
    std::vector<LinkInput> poInputs;
    const linker::Options prepOpts = linkOptions();
    linker::LinkStats poStats;
    std::optional<linker::Executable> kept;

    if (need_link) {
        // Directives come from the layout tasks' specs when this graph
        // computes WPA, from the memoized result otherwise.
        ClusterLookup clusters;
        if (need_wpa) {
            clusters = [&](const std::string &fn)
                -> const codegen::ClusterSpec * {
                auto it = dcfgIndex.find(fn);
                return it == dcfgIndex.end() ? nullptr : &specs[it->second];
            };
        } else {
            clusters = lookupIn(wpa_->ccProf.clusters);
        }
        addCodegenStage(graph, cg, std::move(clusters), nullptr,
                        "phase4.codegen");
        assembleTask.resize(nmod);

        // When this run computes WPA, every codegen task waits for the
        // DCFG apply task: its submap reads dcfgIndex/specs, whose
        // contents exist only after apply.  The apply task also wires
        // the fine-grained layout -> codegen release edges, so a
        // module's backend re-runs the moment its last sampled
        // function's layout lands — never behind unrelated functions'
        // layouts.
        if (need_wpa)
            for (sched::TaskId task : cg.tasks)
                graph.addEdge(wpaTasks.apply, task);

        prepared.resize(nmod);
        poInputs.resize(nmod);
        for (size_t i = 0; i < nmod; ++i) {
            assembleTask[i] = graph.add(
                [&, i] {
                    // Gather this object for the link: its sections,
                    // chunks and branch sites, the targets it defines
                    // itself and its decoded address map.  Modelled as
                    // streaming the object toward the link and copying
                    // its sections into the output image — both
                    // per-object parallel (linkers write disjoint output
                    // ranges concurrently).  Fetch cost depends on
                    // whether the object was a cache hit; only symbol
                    // resolution and layout finalization stay on the
                    // link task.
                    const elf::ObjectFile &obj = cg.batch.objects[i];
                    prepared[i] = linker::prepareObject(obj, prepOpts);
                    poInputs[i] = {obj.name, obj.sizeInBytes()};
                    graph.setCost(
                        assembleTask[i],
                        static_cast<double>(poInputs[i].bytes) *
                            ((cg.isHit[i] ? cost_.fetchCachedSecPerByte
                                       : cost_.fetchFreshSecPerByte) +
                             cost_.linkSecPerByte));
                },
                {"assemble:" + prog.modules[i]->name, "phase4.link",
                 0.0});
            graph.addEdge(cg.tasks[i], assembleTask[i]);
        }

        poLink = graph.add(
            [&] {
                // The hook point compileModules fires after a batch
                // stores its outputs: every codegen commit has run by
                // now (this task depends on all of them).
                if (hooks_)
                    hooks_->onCachePopulated(cache_);
                linker::Options opts = linkOptions();
                opts.outputName = config_.name + ".po-verify";
                opts.symbolOrder = wpa_->ldProf.symbolOrder;
                kept = linker::link(prepared, opts, &poStats);
            },
            {"link:po", "phase4.link", cost_.actionOverheadSec});
        for (size_t i = 0; i < nmod; ++i)
            graph.addEdge(assembleTask[i], poLink);
        if (need_wpa)
            graph.addEdge(wpaTasks.merge, poLink);

        // The link is the last reader of the objects and of their
        // prepared forms (every codegen commit ran before it).
        for (size_t c = 0; c < chunks; ++c) {
            sched::TaskId release = graph.add(
                [&, c] {
                    for (size_t i = c * nmod / chunks;
                         i < (c + 1) * nmod / chunks; ++i) {
                        prepared[i] = {};
                        cg.batch.objects[i] = {};
                    }
                },
                {"release.objects#" + std::to_string(c), "phase4.link",
                 0.0});
            graph.addEdge(poLink, release);
        }
    }

    // ---- Phase 5: per-range verification --------------------------------
    std::optional<analysis::VerifyOptions> vopts;
    std::unique_ptr<analysis::ExecutableVerifier> verifier;
    std::optional<analysis::VerifyReport> vrep;
    analysis::VerifyReport directivesRep;
    analysis::VerifyReport flowRep;
    sched::TaskId lintTask = sched::kInvalidTask;
    std::vector<sched::TaskId> decodeTask;
    std::vector<sched::TaskId> checkTask;
    std::vector<sched::TaskId> addrMapTask;

    if (need_verify) {
        vopts.emplace();
        vopts->threads = config_.jobs;
        // This graph's link, or the one a staged propellerBinary() kept.
        const std::optional<linker::Executable> &vexe =
            need_link ? kept : verifiedBinary_;

        sched::TaskId setupTask = graph.add(
            [&] {
                // PV001-PV003 run in the ctor; ranges come after.
                verifier =
                    std::make_unique<analysis::ExecutableVerifier>(
                        *vexe, *vopts, chunks);
            },
            {"verify.setup", "phase5.verify", 0.0});
        if (need_link)
            graph.addEdge(poLink, setupTask);

        decodeTask.resize(chunks);
        for (size_t c = 0; c < chunks; ++c) {
            decodeTask[c] = graph.add(
                [&, c] {
                    size_t nr = verifier->rangeCount();
                    uint64_t bytes = 0;
                    for (size_t r = c * nr / chunks;
                         r < (c + 1) * nr / chunks; ++r) {
                        verifier->decodeRange(r);
                        bytes += verifier->rangeBytes(r);
                    }
                    graph.setCost(decodeTask[c],
                                  static_cast<double>(bytes) *
                                      cost_.verifySecPerByte * 0.7);
                },
                {"decode#" + std::to_string(c), "phase5.verify", 0.0});
            graph.addEdge(setupTask, decodeTask[c]);
        }

        // The checks look up instruction boundaries in every decoded
        // range, so each waits for all decode chunks.
        checkTask.resize(chunks);
        addrMapTask.resize(chunks);
        for (size_t c = 0; c < chunks; ++c) {
            checkTask[c] = graph.add(
                [&, c] {
                    size_t nr = verifier->rangeCount();
                    uint64_t bytes = 0;
                    for (size_t r = c * nr / chunks;
                         r < (c + 1) * nr / chunks; ++r) {
                        verifier->checkRange(r);
                        bytes += verifier->rangeBytes(r);
                    }
                    graph.setCost(checkTask[c],
                                  static_cast<double>(bytes) *
                                      cost_.verifySecPerByte * 0.3);
                },
                {"check#" + std::to_string(c), "phase5.verify", 0.0});
            addrMapTask[c] = graph.add(
                [&, c] { verifier->checkAddrMapChunk(c); },
                {"addrmap#" + std::to_string(c), "phase5.verify", 0.0});
            for (size_t d = 0; d < chunks; ++d) {
                graph.addEdge(decodeTask[d], checkTask[c]);
                graph.addEdge(decodeTask[d], addrMapTask[c]);
            }
        }

        sched::TaskId finishTask = graph.add(
            [&] {
                // Metadata-wide checks read the applied order and every
                // upstream quarantine decision, including the just-run
                // link's overflow quarantine.
                vopts->expectedOrder = &wpa_->ldProf;
                for (const auto &name :
                     wpa_->stats.quarantinedFunctions)
                    vopts->exemptFunctions.insert(name);
                if (need_link) {
                    for (const auto &name : poStats.quarantined)
                        vopts->exemptFunctions.insert(name);
                } else {
                    const std::string kPrefix =
                        "function quarantined: ";
                    for (const auto &line :
                         report("phase4.link").failures)
                        if (line.rfind(kPrefix, 0) == 0)
                            vopts->exemptFunctions.insert(
                                line.substr(kPrefix.size()));
                }
                vrep = verifier->finish();
            },
            {"verify.finish", "phase5.verify", 0.0});
        for (size_t c = 0; c < chunks; ++c) {
            graph.addEdge(checkTask[c], finishTask);
            graph.addEdge(addrMapTask[c], finishTask);
        }

        // Every check reads every decoded range; finish reads none.
        for (size_t c = 0; c < chunks; ++c) {
            sched::TaskId release = graph.add(
                [&, c] {
                    size_t nr = verifier->rangeCount();
                    for (size_t r = c * nr / chunks;
                         r < (c + 1) * nr / chunks; ++r)
                        verifier->releaseRange(r);
                },
                {"release.ranges#" + std::to_string(c), "phase5.verify",
                 0.0});
            for (size_t d = 0; d < chunks; ++d) {
                graph.addEdge(checkTask[d], release);
                graph.addEdge(addrMapTask[d], release);
            }
        }

        // PV013/PV014 lint the applied directives against the metadata
        // binary's blocks.
        sched::TaskId lintDirectivesTask = graph.add(
            [&] {
                directivesRep = analysis::lintDirectives(
                    wpa_->ccProf, wpa_->ldProf, pm, *vopts);
            },
            {"lint.directives", "phase5.verify", 0.0});
        if (need_wpa)
            graph.addEdge(wpaTasks.merge, lintDirectivesTask);

        // PV016 lints the DCFG the WPA applied: this graph's, right after
        // dcfg.apply, or the one a staged wpa() kept.  An injected DCFG
        // is not linted: the fleet pairs it with an identity-stamp
        // profile, whose own DCFG is empty, and linting the injected one
        // would reject fleet relinks (measured in test_analysis.cc,
        // InjectedDcfgIsNotLinted).
        lintTask = graph.add(
            [&] {
                if (lint_flow)
                    flowRep = analysis::lintProfileFlow(
                        need_wpa ? pipe->dcfg() : *flowDcfg_,
                        analysis::VerifyOptions());
            },
            {"lint.flow", "phase5.verify", 0.0});
        if (need_wpa)
            graph.addEdge(wpaTasks.apply, lintTask);
    }

    // The pipeline (and dcfgIndex, whose keys view its DCFG) dies after
    // its last readers: the WPA merge, every codegen task's directive
    // lookup and the flow lint.  A staged wpa() keeps its DCFG for the
    // verify graph's lint.
    if (need_wpa) {
        sched::TaskId release = graph.add(
            [&] {
                if (!need_verify && lint_flow)
                    flowDcfg_ = pipe->releaseDcfg();
                dcfgIndex = {};
                specs = {};
                pipe.reset();
            },
            {"release.wpa", "phase3.wpa", 0.0});
        graph.addEdge(wpaTasks.merge, release);
        for (sched::TaskId task : cg.tasks)
            graph.addEdge(task, release);
        if (need_verify)
            graph.addEdge(lintTask, release);
    }

    // ---- Execute --------------------------------------------------------
    schedule_ = sched::Scheduler({config_.jobs, limits_.workers}).run(graph);

    // ---- Coordinator finalize: memoize + per-phase reports --------------
    //
    // The classic PhaseReports keep their per-phase formulas (a barrier
    // schedule's accounting), so consumers see the same numbers whatever
    // the overlap; the graph's overlap story lives in relinkSchedule()
    // and the "relink.graph" report.
    {
        PhaseReport report;
        report.phase = "relink.graph";
        report.makespanSec = schedule_->makespanSec;
        report.actions = schedule_->tasksExecuted;
        reports_["relink.graph"] = std::move(report);
    }

    if (need_wpa)
        recordWpaReport();

    if (need_link) {
        CompileBatch batch = finishCodegenStage(cg);
        recordCodegenReport("phase4.codegen", batch);
        coldObjects_ = batch.cachedNames;
        // The shipped PO is the kept link minus its address maps, with
        // the stats a stripped link reports.
        propellerBinary_ = linker::stripAddrMaps(*kept, &poStats);
        propellerBinary_->name = config_.name + ".po";
        reports_["phase4.link"] = makeLinkReport(
            "phase4.link", poInputs, poStats, batch.cachedNames);
        verifiedBinary_ = std::move(kept);
    }

    if (need_verify) {
        analysis::VerifyReport rep = std::move(*vrep);
        rep.merge(directivesRep);
        rep.merge(flowRep);
        flowDcfg_.reset();
        recordVerifyReport("phase5.verify", rep);
        verify_ = std::move(rep);
    }
}

const analysis::VerifyReport &
Workflow::verifyReport()
{
    ensureVerify();
    return *verify_;
}

const linker::Executable &
Workflow::verifiedBinary()
{
    ensureVerify();
    return *verifiedBinary_;
}

const std::vector<std::string> &
Workflow::coldObjects()
{
    ensurePhase4();
    return coldObjects_;
}

linker::Executable
Workflow::propellerBinaryWith(const core::LayoutOptions &opts,
                              core::WpaResult *wpa_out)
{
    core::WpaResult result = core::runWholeProgramAnalysis(
        metadataBinary(), profile(), opts, config_.jobs);

    // A Phase-4-style rebuild that shares the content cache but leaves
    // the canonical pipeline's reports untouched.
    CompileBatch batch =
        compileModules(&result.ccProf.clusters, nullptr);
    linker::Options lopts = linkOptions();
    lopts.outputName = config_.name + ".po-ablation";
    lopts.symbolOrder = result.ldProf.symbolOrder;
    lopts.stripAddrMaps = true;
    linker::Executable exe =
        linkWithReport(batch.objects, lopts, "", batch.cachedNames);
    if (wpa_out)
        *wpa_out = std::move(result);
    return exe;
}

linker::Executable
Workflow::propellerBinaryWithPrefetch(core::PrefetchMap *directives_out)
{
    // Collect a PEBS-style miss profile running the optimized binary.
    sim::MachineOptions mopts = workload::evalOptions(config_);
    mopts.modelDataCache = true;
    mopts.collectMissProfile = true;
    sim::RunResult run = sim::run(propellerBinary(), mopts);

    core::PrefetchMap directives =
        core::computePrefetchDirectives(run.missProfile);

    // Re-run backends: only modules containing targeted load sites have
    // a changed action fingerprint; everything else is a cache hit
    // (including the Phase 4 hot objects, stored under their
    // directive-carrying keys).
    CompileBatch batch =
        compileModules(&wpa().ccProf.clusters, &directives);
    recordCodegenReport("prefetch.codegen", batch);

    linker::Options lopts = linkOptions();
    lopts.outputName = config_.name + ".po-prefetch";
    lopts.symbolOrder = wpa().ldProf.symbolOrder;
    lopts.stripAddrMaps = true;
    linker::Executable exe = linkWithReport(
        batch.objects, lopts, "prefetch.link", batch.cachedNames);
    if (directives_out)
        *directives_out = std::move(directives);
    return exe;
}

linker::Executable
Workflow::iterativePropellerBinary()
{
    if (iterative_)
        return *iterative_;
    ensurePhase4();

    // Round 2 metadata binary: the Phase 4 link, address maps kept.
    linker::Executable pm2 = *verifiedBinary_;
    pm2.name = config_.name + ".pm2";

    sim::RunResult run =
        sim::run(pm2, workload::profileOptions(config_));
    core::WpaResult wpa2 = core::runWholeProgramAnalysis(
        pm2, run.profile, defaultLayoutOptions(), config_.jobs);

    CompileBatch batch = compileModules(&wpa2.ccProf.clusters, nullptr);
    linker::Options po2_opts = linkOptions();
    po2_opts.outputName = config_.name + ".po2";
    po2_opts.symbolOrder = wpa2.ldProf.symbolOrder;
    po2_opts.stripAddrMaps = true;
    iterative_ =
        linkWithReport(batch.objects, po2_opts, "", batch.cachedNames);
    return *iterative_;
}

linker::Executable
Workflow::boltBinary(const bolt::BoltOptions &opts, bolt::BoltStats *stats)
{
    bolt::BoltStats local;
    bolt::BoltProfile bolt_profile = bolt::convertProfile(
        boltInputBinary(), profile(), &local, nullptr, opts.lite);
    linker::Executable exe =
        bolt::optimize(boltInputBinary(), bolt_profile, opts, &local);

    {
        PhaseReport report;
        report.phase = "bolt.convert";
        report.makespanSec = cost_.makespan(
            {static_cast<double>(profile().sizeInBytes()) *
                 cost_.wpaSecPerProfileByte +
             static_cast<double>(local.disassembledInsts) *
                 cost_.boltSecPerInst * 0.4},
            1);
        report.actions = 1;
        report.peakActionMemory = local.convertPeakMemory;
        report.memoryLimitExceeded =
            local.convertPeakMemory > limits_.ramPerAction;
        reports_["bolt.convert"] = std::move(report);
    }
    {
        PhaseReport report;
        report.phase = "bolt.opt";
        // One monolithic action: disassemble, reorder and rewrite the
        // whole binary on a single machine.
        report.makespanSec = cost_.makespan(
            {static_cast<double>(local.disassembledInsts) *
                 cost_.boltSecPerInst +
             static_cast<double>(local.newTextBytes) *
                 cost_.linkSecPerByte},
            1);
        report.actions = 1;
        report.peakActionMemory = local.optPeakMemory;
        report.memoryLimitExceeded =
            local.optPeakMemory > limits_.ramPerAction;
        reports_["bolt.opt"] = std::move(report);
    }
    if (stats)
        *stats = local;
    return exe;
}

analysis::VerifyReport
Workflow::verifyBoltBinary(const bolt::BoltOptions &opts,
                           bolt::BoltStats *stats)
{
    linker::Executable exe = boltBinary(opts, stats);

    // BOLT's rewrite strips .bb_addr_map and owns its own layout, so the
    // metadata-vs-machine cross-checks no-op; the machine-level passes
    // (symbol bounds, decode, control flow, eh_frame, startup integrity)
    // run in full, turning the paper's section 5 crash classes into
    // machine-checked findings on this path too.
    analysis::VerifyOptions vopts;
    analysis::VerifyReport rep = analysis::verifyExecutable(exe, vopts);
    recordVerifyReport("bolt.verify", rep);
    return rep;
}

const sched::ScheduleReport &
Workflow::relinkSchedule() const
{
    assert(schedule_ && "no task-graph relink has run");
    return *schedule_;
}

PhaseReport
Workflow::instrumentedBuildReport()
{
    const ir::Program &prog = program();
    std::vector<double> costs;
    uint64_t total_bytes = 0;
    uint64_t peak = 0;
    for (const auto &mod : prog.modules) {
        uint64_t insts = moduleInsts(*mod);
        // Instrumentation bloats every backend action; counters and
        // value-profiling tables compile alongside the real code.
        costs.push_back(static_cast<double>(insts) *
                        cost_.backendSecPerInst *
                        cost_.instrumentFactor);
        total_bytes += insts * 6;
        peak = std::max(peak, codegenActionMemory(insts, insts * 6));
    }
    // Plus the instrumented link (all outputs fresh, bloated inputs).
    double link_cost =
        static_cast<double>(total_bytes) *
        (cost_.fetchFreshSecPerByte + cost_.linkSecPerByte) * 1.3;
    costs.push_back(link_cost);

    PhaseReport report;
    report.phase = "pgo.instrumented";
    report.makespanSec = cost_.makespan(costs, limits_.workers);
    report.actions = static_cast<uint32_t>(costs.size());
    report.peakActionMemory = peak;
    report.memoryLimitExceeded = peak > limits_.ramPerAction;
    return report;
}

bool
Workflow::hasReport(const std::string &phase) const
{
    return reports_.count(phase) != 0;
}

const PhaseReport &
Workflow::report(const std::string &phase) const
{
    auto it = reports_.find(phase);
    assert(it != reports_.end() && "phase report not yet produced");
    return it->second;
}

} // namespace propeller::buildsys
