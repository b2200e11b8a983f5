#ifndef PROPELLER_PROPELLER_PROPELLER_H
#define PROPELLER_PROPELLER_PROPELLER_H

/**
 * @file
 * Phase 3: profile conversion and whole-program analysis (paper 3.3).
 *
 * This is the standalone tool of Table 1 ("create_llvm_prof" in the real
 * system): it consumes the metadata binary's BB address map and the raw
 * LBR profile, builds the whole-program dynamic CFG, computes code layout
 * and emits cc_prof / ld_prof plus the list of hot functions whose objects
 * Phase 4 must regenerate.  Peak memory is the quantity Figure 4 compares
 * against BOLT's perf2bolt.
 */

#include <functional>
#include <optional>
#include <vector>

#include "linker/executable.h"
#include "profile/profile.h"
#include "propeller/layout.h"
#include "propeller/profile_mapper.h"
#include "sched/sched.h"
#include "support/memory_meter.h"

namespace propeller::core {

/** Whole-program-analysis statistics (Figure 4 inputs). */
struct WpaStats
{
    uint64_t peakMemory = 0;      ///< Modelled peak bytes of Phase 3.
    uint64_t profileBytes = 0;    ///< Raw profile size read.
    uint64_t dcfgFootprint = 0;   ///< In-memory DCFG bytes.
    uint64_t indexFootprint = 0;  ///< Address map index bytes.
    uint32_t hotFunctions = 0;
    MapperStats mapper;
    ExtTspStats extTsp;

    /**
     * Functions whose address-map metadata failed sanitation and were
     * dropped from the index: their samples go unmapped and they keep
     * their baseline layout ("degrade, don't die" — ISSUE 4).
     */
    uint32_t quarantined = 0;
    std::vector<std::string> quarantinedFunctions; ///< Their names, sorted.

    /**
     * The profile's binary identity does not match the binary being
     * analyzed: the samples were collected on a *different* build, and the
     * address-based mapping this pass performed is unsound.  Callers must
     * reject the result or re-run through the stale matcher (src/stale).
     */
    bool profileMismatch = false;
};

/** Phase 3 outputs. */
struct WpaResult
{
    CcProfile ccProf;
    LdProfile ldProf;
    std::vector<std::string> hotFunctions;
    WpaStats stats;
};

/**
 * Phase 3 as schedulable stages on a sched::TaskGraph, shared by the
 * standalone entry point below (ablation rebuilds, the iterative round)
 * and the relink graph, so both produce byte-identical artifacts and
 * identical stats by construction.  addStages() wires, in this task
 * creation order:
 *
 *   dcfg.prepare             — identity check, shard slots;
 *   agg#s                    — per-shard counters, any thread/order;
 *   agg.merge                — serial shard-order fold;
 *   addrmap.index            — BB address map index (independent of the
 *                              aggregation shards);
 *   map.setup                — snapshot records into mapper slots;
 *   resolve#k                — read-only record resolution slices;
 *   order                    — hfsort, concurrent with the layouts;
 *   wpa.merge                — ordered merge + memory accounting;
 *   dcfg.apply               — serial DCFG application, then one
 *                              layout:<fn> task per DCFG function.
 *
 * The MemoryMeter charge sequence matches a serial run exactly (charges
 * are monotonic within the phase, so the peak is order independent),
 * and every parallel stage writes disjoint slots, so peakMemory and the
 * DCFG are identical however the stages are scheduled.
 */
class WpaPipeline
{
  public:
    WpaPipeline(const linker::Executable &metadata_exe,
                const profile::Profile &prof, const LayoutOptions &opts,
                unsigned jobs);
    ~WpaPipeline();
    WpaPipeline(const WpaPipeline &) = delete;
    WpaPipeline &operator=(const WpaPipeline &) = delete;

    /** Modelled costs and per-function hooks of addStages(). */
    struct StagePlan
    {
        /**
         * Modelled profile-conversion cost, split across the ingest
         * stages in proportion to their real work.
         */
        double profileCostSec = 0.0;
        /** Modelled Ext-TSP cost per hot function. */
        double hotFunctionCostSec = 0.0;
        /** Record-resolution slices (one resolve#k task each). */
        size_t resolveShards = 1;
        /**
         * Produces function f's layout inside task @p task (default:
         * layoutFunction(f)); may refine the task's modelled cost.
         */
        std::function<FunctionLayout(size_t f, sched::TaskId task)> layout;
        /**
         * Runs inside dcfg.apply once the layout tasks exist (entry f
         * lays out DCFG function f), while none has been released: the
         * place to wire their edges to downstream consumers.
         */
        std::function<void(const std::vector<sched::TaskId> &)>
            onLayoutTasks;
    };

    /** The stages downstream tasks depend on. */
    struct StageTasks
    {
        sched::TaskId apply = sched::kInvalidTask; ///< DCFG applied.
        sched::TaskId merge = sched::kInvalidTask; ///< @p out written.
    };

    /**
     * Add every Phase 3 stage to @p graph; the wpa.merge task writes the
     * result to @p out (and pulses @p meter with the peak).  The
     * inter-procedural strategy adds no layout tasks: its global chain
     * cannot be decomposed, so wpa.merge runs it monolithically.
     */
    StageTasks addStages(sched::TaskGraph &graph, StagePlan plan,
                         std::optional<WpaResult> &out,
                         MemoryMeter *meter = nullptr);

    /**
     * Replace the mapper-built DCFG: dcfg.apply installs @p dcfg instead
     * of resolving the profile's records (the fleet service's injection
     * seam — its rolling multi-version aggregate is already a DCFG in
     * the target's block-id space, so re-deriving it from synthetic
     * samples would be lossy).  Ingestion still runs and the profile's
     * identity is still checked; only the mapper's output is
     * substituted.  Must be called before the graph runs.
     */
    void overrideDcfg(WholeProgramDcfg dcfg);

    /**
     * layoutInputDigest() for function @p f (DCFG index) against this
     * pipeline's address-map index — the alias key for primed
     * layout-cache lookups (see layout.h).
     */
    uint64_t layoutInputDigest(size_t f) const;

    /**
     * Layout memoization key material for function @p f (DCFG index):
     * folds the function's .bb_addr_map v2 CFG hash, its DCFG shape
     * and profile counts, and the block list the cluster sanitizer
     * sees.  Combined with layoutOptionsFingerprint this keys a cached
     * FunctionLayout: equal fingerprints reproduce layoutFunction(f)
     * exactly.
     */
    uint64_t layoutFingerprint(size_t f) const;

    /** The applied DCFG; valid once dcfg.apply has run. */
    const WholeProgramDcfg &dcfg() const;

    /** Move the applied DCFG out, once the stages have all run. */
    WholeProgramDcfg releaseDcfg();

    /** Lay out one function. Thread-safe across distinct @p f. */
    FunctionLayout layoutFunction(size_t f) const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Run profile conversion + whole-program analysis.
 *
 * @param metadata_exe the Phase 2 binary with BB address map metadata.
 * @param prof         LBR samples collected while running it.
 * @param opts         layout strategy.
 * @param jobs         worker threads for the stage graph (0 = hardware).
 * @param meter        optional external phase meter (pulsed with the peak).
 */
WpaResult runWholeProgramAnalysis(const linker::Executable &metadata_exe,
                                  const profile::Profile &prof,
                                  const LayoutOptions &opts = {},
                                  unsigned jobs = 0,
                                  MemoryMeter *meter = nullptr);

} // namespace propeller::core

#endif // PROPELLER_PROPELLER_PROPELLER_H
