#ifndef PROPELLER_LINKER_LINKER_H
#define PROPELLER_LINKER_LINKER_H

/**
 * @file
 * The linker.
 *
 * Substitute for lld with the basic-block-sections support of paper
 * section 4.  Responsibilities:
 *
 *  - gather text sections from all input objects;
 *  - order them by the symbol ordering file (ld_prof.txt, paper 3.4); the
 *    remainder keeps input order;
 *  - run the unified branch sizing / relaxation pass (paper 4.2): pick
 *    short vs. near encodings for every branch site and delete explicit
 *    fall-through jumps whose target ends up immediately next — all without
 *    disassembling a single instruction (branch sites are relocations);
 *  - resolve every relocation and emit the final image;
 *  - produce the absolute-address BB map, symbol ranges, integrity-check
 *    table and the Figure 6 size breakdown.
 */

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "elf/object.h"
#include "linker/executable.h"
#include "support/memory_meter.h"
#include "support/status.h"

namespace propeller::linker {

/** Link options. */
struct Options
{
    /** Output binary name. */
    std::string outputName = "a.out";

    /** Entry function symbol. */
    std::string entrySymbol;

    /**
     * Symbol ordering file contents (ld_prof.txt): text sections whose
     * symbol appears here are laid out first, in this order.
     */
    std::vector<std::string> symbolOrder;

    /** Run the relaxation pass (fall-through deletion + shrinking). */
    bool relax = true;

    /** Base virtual address of the text image. */
    uint64_t textBase = 0x400000;

    /** Map text on 2 MiB huge pages (2 MiB-aligns the base). */
    bool hugePagesText = false;

    /**
     * Drop .bb_addr_map sections of these input objects from the size
     * accounting (the paper's linker drops metadata of cached cold objects
     * in the final relink, section 3.4).
     */
    const std::set<std::string> *dropAddrMapsOf = nullptr;

    /** Drop all .bb_addr_map sections (plain baseline binaries). */
    bool stripAddrMaps = false;

    /**
     * Keep static relocations in the output (--emit-relocs), required by
     * BOLT's metadata binaries; counted in the Figure 6 "relocs" bucket.
     */
    bool emitRelocs = false;

    /** Modelled memory meter to charge (optional). */
    MemoryMeter *meter = nullptr;

    /**
     * Largest branch displacement magnitude the target encodes.  The
     * default matches rel32; tests lower it to exercise the overflow
     * quarantine at model scale.
     */
    int64_t maxBranchDisplacement = INT32_MAX;

    /**
     * On displacement overflow, quarantine the offending function —
     * revert its sections to input order, dropping its optimized
     * layout — instead of failing the whole link (paper §6: never ship
     * a broken binary; degrade per function).
     */
    bool quarantineOnOverflow = true;

    /**
     * Threads for the link's data-parallel passes (sched::parallelFor;
     * 0 = hardware concurrency).  The link is the same at any count.
     */
    unsigned threads = 1;
};

/** Link-time statistics. */
struct LinkStats
{
    uint64_t inputBytes = 0;      ///< Serialized size of all inputs.
    uint32_t sectionsLinked = 0;  ///< Text sections placed.
    uint32_t fallThroughsDeleted = 0;
    uint32_t branchesShrunk = 0;  ///< Near forms relaxed to short.
    uint32_t relaxIterations = 0;
    uint64_t peakMemory = 0;      ///< Modelled peak bytes.

    /** Functions reverted to input-order layout (overflow quarantine). */
    uint32_t quarantinedFunctions = 0;
    std::vector<std::string> quarantined; ///< Their names.

    /** Input objects whose .bb_addr_map bytes failed to decode. */
    uint32_t addrMapsRejected = 0;
    std::vector<std::string> rejectedAddrMapObjects; ///< Their names.

    bool operator==(const LinkStats &) const = default;
};

/**
 * Link @p objects into an executable.
 *
 * Corrupt input is a typed error (unresolved symbols, duplicate section
 * symbols, branches to unmapped blocks, a missing entry symbol) — the
 * caller decides whether to abort the build or fall back.  Two failure
 * classes degrade instead of failing:
 *
 *  - a kept object whose .bb_addr_map section bytes do not decode loses
 *    its metadata (functions become unprofiled; counted in
 *    LinkStats::addrMapsRejected);
 *  - a branch displacement overflow quarantines the offending function
 *    back to input order (LinkStats::quarantined) when
 *    Options::quarantineOnOverflow is set.
 */
support::StatusOr<Executable>
linkChecked(const std::vector<elf::ObjectFile> &objects, const Options &opts,
            LinkStats *stats = nullptr);

/**
 * Link @p objects, aborting on malformed input (trusted-input paths —
 * in a closed-world build those failures are always producer bugs).
 * Both object-vector entry points prepare every object serially.
 */
Executable link(const std::vector<elf::ObjectFile> &objects,
                const Options &opts, LinkStats *stats = nullptr);

/**
 * One input object's share of a link, gathered without looking at any
 * other object: its text sections with their chunks, branch sites and
 * sorted block slots, the branch targets it defines itself, its decoded
 * .bb_addr_map (when kept) and its Figure 6 size contribution.  A link
 * over prepared objects only resolves what crosses objects, lays out and
 * emits, so the preparation of different objects can run in parallel.
 *
 * Points into the ObjectFile it was prepared from, which must outlive
 * every link of it.
 */
class PreparedObject
{
  public:
    PreparedObject();
    ~PreparedObject();
    PreparedObject(PreparedObject &&) noexcept;
    PreparedObject &operator=(PreparedObject &&) noexcept;

    /** The gathered state (defined by the linker). */
    struct Parts;
    const Parts &parts() const { return *parts_; }

  private:
    friend PreparedObject prepareObject(const elf::ObjectFile &obj,
                                        const Options &opts);
    std::unique_ptr<Parts> parts_;
};

/**
 * Gather @p obj for a link with @p opts (its stripAddrMaps,
 * dropAddrMapsOf and emitRelocs decide what is kept and counted; the
 * link must use the same values).  A malformed object does not fail
 * here: its first error is recorded and reported by the link, in input
 * order.
 */
PreparedObject prepareObject(const elf::ObjectFile &obj,
                             const Options &opts);

/**
 * Link prepared objects (see prepareObject); identical to linking the
 * objects they were prepared from, errors included.
 */
support::StatusOr<Executable>
linkChecked(const std::vector<PreparedObject> &objects, const Options &opts,
            LinkStats *stats = nullptr);

/** linkChecked over prepared objects, aborting on malformed input. */
Executable link(const std::vector<PreparedObject> &objects,
                const Options &opts, LinkStats *stats = nullptr);

/**
 * What a link with Options::stripAddrMaps set returns, derived from
 * @p kept, a link of the same inputs and options that kept the maps:
 * the address maps only annotate the layout and never move text, so
 * stripping is a pure metadata pass.  The copy has no bbAddrMap and a
 * zero sizes.bbAddrMap; @p stats, when given, loses the addr-map
 * rejections a stripped link never decodes.
 */
Executable stripAddrMaps(const Executable &kept, LinkStats *stats = nullptr);

} // namespace propeller::linker

#endif // PROPELLER_LINKER_LINKER_H
