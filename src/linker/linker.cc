#include "linker/linker.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <set>
#include <string_view>

#include "isa/isa.h"
#include "sched/sched.h"
#include "support/check.h"
#include "support/hash.h"

namespace propeller::linker {

namespace {

using elf::BranchSite;
using elf::ObjectFile;
using elf::Section;
using elf::SectionType;
using isa::Opcode;
using support::ErrorCode;
using support::makeError;

constexpr uint64_t kHugePage = 2 * 1024 * 1024;

uint64_t
alignUp(uint64_t value, uint64_t alignment)
{
    if (alignment <= 1)
        return value;
    return (value + alignment - 1) / alignment * alignment;
}

/** Branch target slot: the section start, or a block it does not map. */
constexpr int32_t kSectionStartSlot = -1;
constexpr int32_t kUnmappedSlot = -2;

/** A target the object does not define itself (resolved at link). */
constexpr int32_t kExternal = -1;

/** Encoding state of one branch site. */
enum class SiteState : uint8_t { Deleted, Short, Long };

/** One flattened content unit of a text section. */
struct Chunk
{
    const std::vector<uint8_t> *bytes = nullptr; ///< May be empty.
    uint32_t size = 0;         ///< bytes->size(), read by every sizing pass.
    int32_t site = -1;         ///< Trailing branch site (object-local).
    bool startsBlock = false;  ///< Starts the section's next block slot.
};

/** One text section as gathered from its object. */
struct PreparedSect
{
    const std::string *symbol = nullptr;
    const std::string *parentFunction = nullptr;
    uint64_t symbolHash = 0;
    uint64_t parentHash = 0;
    bool isPrimary = false;
    bool isHandAsm = false;
    uint32_t alignment = 1;
    uint32_t chunkBegin = 0, chunkEnd = 0; ///< Range in Parts::chunks.
    uint32_t blockBegin = 0, blockEnd = 0; ///< Range in Parts::blocks.
};

/** One branch site as gathered from its object. */
struct PreparedSite
{
    const BranchSite *src = nullptr;
    uint32_t sect = 0;        ///< Owning section (object-local).
    uint64_t targetHash = 0;  ///< Of src->targetSymbol.
    int32_t targetSect = kExternal;        ///< Object-local, if defined here.
    int32_t targetSlot = kSectionStartSlot; ///< Object-local block slot.
};

/** A block slot's id and flags, in section order. */
struct BlockSlot
{
    uint32_t bbId = 0;
    uint8_t flags = 0;
};

/** (bbId, slot) pairs, sorted per section: the block-slot index. */
struct SlotKey
{
    uint32_t bbId = 0;
    uint32_t slot = 0;
};

/** A fingerprinted block of a decoded address map. */
struct FpBlock
{
    uint32_t bbId = 0;
    const elf::BbEntry *entry = nullptr;
};

/** One decoded address map: its name and blocks sorted by id. */
struct FpMap
{
    const elf::FunctionAddrMap *map = nullptr;
    uint64_t nameHash = 0;
    uint32_t blockBegin = 0, blockEnd = 0; ///< Range in Parts::fpBlocks.
};

/** Name lookups by 64-bit hash: a sorted vector, binary-searched. */
struct NameEntry
{
    uint64_t hash = 0;
    uint32_t id = 0;
    const std::string *name = nullptr;
};

bool
byHashThenId(const NameEntry &a, const NameEntry &b)
{
    return a.hash != b.hash ? a.hash < b.hash : a.id < b.id;
}

/** The id of @p name in @p index (sorted by byHashThenId); -1 if absent. */
int64_t
findName(const std::vector<NameEntry> &index, std::string_view name,
         uint64_t hash)
{
    auto it = std::lower_bound(
        index.begin(), index.end(), hash,
        [](const NameEntry &e, uint64_t h) { return e.hash < h; });
    for (; it != index.end() && it->hash == hash; ++it)
        if (*it->name == name)
            return it->id;
    return -1;
}

/** The slot of @p bb_id in the sorted @p keys; kUnmappedSlot if absent. */
int32_t
findSlot(const SlotKey *begin, const SlotKey *end, uint32_t bb_id)
{
    // Stable-sorted, so lower_bound finds the first slot of a repeated id
    // (the first block mark wins, as it always has).
    const SlotKey *it = std::lower_bound(
        begin, end, bb_id,
        [](const SlotKey &k, uint32_t id) { return k.bbId < id; });
    return it != end && it->bbId == bb_id ? static_cast<int32_t>(it->slot)
                                          : kUnmappedSlot;
}

} // namespace

/** Everything prepareObject gathers from one object. */
struct PreparedObject::Parts
{
    const ObjectFile *object = nullptr;

    /** The object's first gather error; its sects stop before it. */
    support::Status error;

    uint64_t inputBytes = 0;
    std::vector<PreparedSect> sects;
    std::vector<Chunk> chunks;
    std::vector<PreparedSite> sites;
    std::vector<BlockSlot> blocks;
    std::vector<SlotKey> slotKeys; ///< Parallel to blocks, sorted per sect.
    std::vector<NameEntry> symbolIndex; ///< The sects' own symbols.

    /** The .bb_addr_map decoded and kept. */
    bool mapsKept = false;
    /** The .bb_addr_map was kept but failed to decode. */
    bool mapsRejected = false;
    std::vector<elf::FunctionAddrMap> maps;
    std::vector<FpMap> fpMaps;
    std::vector<FpBlock> fpBlocks;

    /** This object's Figure 6 contribution (all but text). */
    SectionSizes sizes;
};

PreparedObject::PreparedObject() : parts_(std::make_unique<Parts>()) {}
PreparedObject::~PreparedObject() = default;
PreparedObject::PreparedObject(PreparedObject &&) noexcept = default;
PreparedObject &
PreparedObject::operator=(PreparedObject &&) noexcept = default;

PreparedObject
prepareObject(const ObjectFile &obj, const Options &opts)
{
    PreparedObject prepared;
    PreparedObject::Parts &p = *prepared.parts_;
    p.object = &obj;
    p.inputBytes = obj.sizeInBytes();

    // ---- Text sections, chunks, sites and block slots ------------------
    //
    // A section's defining symbol is the last one naming its index;
    // symbols naming no section of this object define nothing.
    std::vector<const elf::Symbol *> sym_of_section(obj.sections.size());
    for (const auto &sym : obj.symbols)
        if (sym.sectionIndex < obj.sections.size())
            sym_of_section[sym.sectionIndex] = &sym;

    for (size_t si = 0; si < obj.sections.size(); ++si) {
        const Section &sec = obj.sections[si];
        if (sec.type != SectionType::Text)
            continue;
        const elf::Symbol *sym = sym_of_section[si];
        if (!sym) {
            p.error = makeError(ErrorCode::kMalformed,
                                "object " + obj.name + ": text section " +
                                    sec.name + " has no defining symbol");
            break;
        }

        PreparedSect sect;
        sect.symbol = &sym->name;
        sect.parentFunction = &sym->parentFunction;
        sect.symbolHash = fnv1a(sym->name);
        sect.parentHash = fnv1a(sym->parentFunction);
        sect.isPrimary = sym->kind == elf::SymbolKind::Function;
        sect.isHandAsm = sec.isHandAsm;
        sect.alignment = sec.alignment;
        sect.chunkBegin = static_cast<uint32_t>(p.chunks.size());
        sect.blockBegin = static_cast<uint32_t>(p.blocks.size());
        const uint32_t sect_index = static_cast<uint32_t>(p.sects.size());

        for (const auto &piece : sec.pieces) {
            Chunk chunk;
            chunk.bytes = &piece.bytes;
            chunk.size = static_cast<uint32_t>(piece.bytes.size());
            if (piece.block) {
                chunk.startsBlock = true;
                p.slotKeys.push_back(
                    {piece.block->bbId,
                     static_cast<uint32_t>(p.blocks.size())});
                p.blocks.push_back({piece.block->bbId, piece.block->flags});
            }
            if (piece.site) {
                chunk.site = static_cast<int32_t>(p.sites.size());
                PreparedSite site;
                site.src = &*piece.site;
                site.sect = sect_index;
                site.targetHash = fnv1a(piece.site->targetSymbol);
                p.sites.push_back(site);
            }
            p.chunks.push_back(chunk);
        }
        sect.chunkEnd = static_cast<uint32_t>(p.chunks.size());
        sect.blockEnd = static_cast<uint32_t>(p.blocks.size());
        std::stable_sort(p.slotKeys.begin() + sect.blockBegin,
                         p.slotKeys.end(),
                         [](const SlotKey &a, const SlotKey &b) {
                             return a.bbId < b.bbId;
                         });
        p.symbolIndex.push_back({sect.symbolHash, sect_index, sect.symbol});
        p.sects.push_back(sect);
    }
    std::sort(p.symbolIndex.begin(), p.symbolIndex.end(), byHashThenId);

    // Resolve the branches this object defines the target of.  A symbol
    // defined here and in another object is a duplicate, which fails the
    // link before any branch is resolved, so a local definition is the
    // one a whole-link lookup would find.
    for (auto &site : p.sites) {
        int64_t target =
            findName(p.symbolIndex, site.src->targetSymbol, site.targetHash);
        if (target < 0)
            continue;
        site.targetSect = static_cast<int32_t>(target);
        if (site.src->targetBb != elf::kSectionStart) {
            const PreparedSect &t = p.sects[target];
            site.targetSlot = findSlot(p.slotKeys.data() + t.blockBegin,
                                       p.slotKeys.data() + t.blockEnd,
                                       site.src->targetBb);
        }
    }

    // ---- Address map -----------------------------------------------------
    //
    // Decoded from the actual section *bytes*, not the structured
    // ObjectFile field: the bytes are what a cache or disk corruption
    // hits, and decoding them here is what turns that corruption into a
    // per-object metadata rejection instead of silent bad mappings.
    int map_idx = obj.findSection(".bb_addr_map");
    bool dropped =
        opts.stripAddrMaps ||
        (opts.dropAddrMapsOf && opts.dropAddrMapsOf->count(obj.name));
    if (map_idx >= 0 && !dropped) {
        auto maps = elf::decodeAddrMapsChecked(obj.sections[map_idx].bytes);
        if (maps.ok()) {
            p.mapsKept = true;
            p.maps = std::move(maps).value();
        } else {
            // Degrade: this object's functions become unprofiled
            // (baseline layout downstream), the relink proceeds.
            p.mapsRejected = true;
        }
    }
    // Stale-profile fingerprints live in the address maps (the emitted
    // sections only carry block marks): each map's blocks sorted by id,
    // the first entry of a repeated id first.
    for (const auto &map : p.maps) {
        FpMap fp;
        fp.map = &map;
        fp.nameHash = fnv1a(map.functionName);
        fp.blockBegin = static_cast<uint32_t>(p.fpBlocks.size());
        for (const auto &range : map.ranges)
            for (const auto &bb : range.blocks)
                p.fpBlocks.push_back({bb.bbId, &bb});
        fp.blockEnd = static_cast<uint32_t>(p.fpBlocks.size());
        std::stable_sort(p.fpBlocks.begin() + fp.blockBegin,
                         p.fpBlocks.end(),
                         [](const FpBlock &a, const FpBlock &b) {
                             return a.bbId < b.bbId;
                         });
        p.fpMaps.push_back(fp);
    }

    // ---- Size breakdown (Figure 6), all but the linked text -------------
    for (const auto &sec : obj.sections) {
        switch (sec.type) {
          case SectionType::EhFrame:
            p.sizes.ehFrame += sec.size();
            break;
          case SectionType::BbAddrMap:
            if (p.mapsKept)
                p.sizes.bbAddrMap += sec.size();
            break;
          case SectionType::Debug:
            p.sizes.debug += sec.size();
            break;
          case SectionType::RoData:
          case SectionType::Other:
            p.sizes.other += sec.size();
            break;
          case SectionType::Text:
            if (opts.emitRelocs)
                p.sizes.relocs +=
                    sec.relocationCount() * elf::kRelaEntrySize;
            break;
        }
    }
    if (opts.emitRelocs)
        p.sizes.relocs += obj.debugRelocs * elf::kRelaEntrySize;
    return prepared;
}

namespace {

/** A text section in the link: where its prepared parts live + layout. */
struct Sect
{
    const PreparedSect *prep = nullptr;
    uint32_t object = 0;
    const Chunk *chunks = nullptr;  ///< The object's chunk array.
    uint32_t siteBase = 0;          ///< Global index of object site 0.
    uint32_t blockBase = 0;         ///< Global index of the first slot.
    uint32_t function = 0;          ///< Parent function id.

    // Recomputed each sizing iteration.
    uint64_t addr = 0;
    uint64_t size = 0;
};

/** A branch site in the link: resolved target and encoding state. */
struct Site
{
    const BranchSite *src = nullptr;
    uint32_t sect = 0;
    uint32_t targetSect = 0;
    int32_t targetBlock = kSectionStartSlot; ///< Global slot or start.
    uint64_t offset = 0; ///< Offset within section (per iteration).
    SiteState state = SiteState::Long;
    uint8_t longSize = 0;
    uint8_t shortSize = 0;
    Opcode shortOp = Opcode::JmpShort;
    bool isCall = false;
    bool isFallThrough = false;

    uint64_t
    encodedSize() const
    {
        switch (state) {
          case SiteState::Deleted:
            return 0;
          case SiteState::Short:
            return shortSize;
          case SiteState::Long:
            return longSize;
        }
        return 0;
    }
};

/** A function's merged fingerprints (see linkChecked). */
struct FuncFp
{
    bool present = false;
    uint64_t functionHash = 0;
    const FpBlock *begin = nullptr;
    const FpBlock *end = nullptr;
    std::vector<FpBlock> merged; ///< Owns the blocks of a multi-map function.
};

/**
 * linkChecked over prepared objects.  The per-object, per-section and
 * per-site passes run as chunked parallel loops on opts.threads threads;
 * the symbol index, function interning, the address prefix and the
 * identity hash stay serial.  Every parallel pass writes only its own
 * slots, so the link is the same at any thread count.
 */
support::StatusOr<Executable>
linkPrepared(const std::vector<PreparedObject> &objects, const Options &opts,
             LinkStats *stats_out)
{
    LinkStats stats;
    MemoryMeter meter;
    const unsigned threads = opts.threads;

    // ---- Sections, in input order, up to the first gather error ----------
    std::vector<Sect> sects;
    std::vector<uint32_t> sect_base(objects.size(), 0);
    std::vector<uint32_t> block_base(objects.size(), 0);
    std::vector<uint32_t> site_base(objects.size(), 0);
    uint64_t block_count = 0;
    uint32_t site_count = 0;
    const support::Status *gather_error = nullptr;
    size_t linked_objects = 0;
    for (size_t o = 0; o < objects.size(); ++o) {
        const PreparedObject::Parts &p = objects[o].parts();
        stats.inputBytes += p.inputBytes;
        sect_base[o] = static_cast<uint32_t>(sects.size());
        block_base[o] = static_cast<uint32_t>(block_count);
        site_base[o] = site_count;
        for (const PreparedSect &ps : p.sects) {
            Sect sect;
            sect.prep = &ps;
            sect.object = static_cast<uint32_t>(o);
            sect.chunks = p.chunks.data();
            sect.siteBase = site_count;
            sect.blockBase = static_cast<uint32_t>(block_count) +
                             ps.blockBegin;
            sects.push_back(sect);
        }
        block_count += p.blocks.size();
        site_count += static_cast<uint32_t>(p.sites.size());
        ++linked_objects;
        if (!p.error.ok()) {
            gather_error = &p.error;
            break;
        }
    }

    // The section symbol index.  A duplicate is reported at its second
    // definition in input order; every gathered section precedes the
    // gather error, if any, so a duplicate is always the earlier error.
    std::vector<NameEntry> symbols;
    symbols.reserve(sects.size());
    for (uint32_t i = 0; i < sects.size(); ++i)
        symbols.push_back(
            {sects[i].prep->symbolHash, i, sects[i].prep->symbol});
    std::sort(symbols.begin(), symbols.end(), byHashThenId);
    int64_t duplicate = -1;
    for (size_t i = 1; i < symbols.size(); ++i) {
        for (size_t j = i; j-- > 0 && symbols[j].hash == symbols[i].hash;) {
            if (*symbols[j].name == *symbols[i].name) {
                if (duplicate < 0 || symbols[i].id < duplicate)
                    duplicate = symbols[i].id;
                break;
            }
        }
    }
    if (duplicate >= 0) {
        const Sect &sect = sects[duplicate];
        return makeError(ErrorCode::kMalformed,
                         "duplicate section symbol " + *sect.prep->symbol +
                             " (object " +
                             objects[sect.object].parts().object->name +
                             ")");
    }
    if (gather_error)
        return *gather_error;

    auto findSect = [&](std::string_view name) {
        return findName(symbols, name, fnv1a(name));
    };

    // Resolve every site's target now that all symbols are known, and
    // validate block-level targets up front so the layout loop below
    // can index without re-checking.  Objects resolve in parallel; each
    // stops at its first error, and the first in input order wins.
    std::vector<Site> sites(site_count);
    std::vector<support::Status> site_errors(linked_objects);
    auto resolveSites = [&](size_t o) -> support::Status {
        const PreparedObject::Parts &p = objects[o].parts();
        Site *out = sites.data() + site_base[o];
        for (const PreparedSite &ps : p.sites) {
            Site &site = *out++;
            site.src = ps.src;
            site.sect = sect_base[o] + ps.sect;
            int32_t slot = ps.targetSlot;
            if (ps.targetSect != kExternal) {
                site.targetSect = sect_base[o] + ps.targetSect;
            } else {
                int64_t target = findName(symbols, ps.src->targetSymbol,
                                          ps.targetHash);
                if (target < 0)
                    return makeError(
                        ErrorCode::kUnresolved,
                        "unresolved symbol " + ps.src->targetSymbol +
                            " (referenced from " +
                            *sects[site.sect].prep->symbol + ")");
                site.targetSect = static_cast<uint32_t>(target);
                if (ps.src->targetBb != elf::kSectionStart) {
                    const Sect &t = sects[target];
                    const SlotKey *keys =
                        objects[t.object].parts().slotKeys.data();
                    slot = findSlot(keys + t.prep->blockBegin,
                                    keys + t.prep->blockEnd,
                                    ps.src->targetBb);
                }
            }
            if (slot == kUnmappedSlot)
                return makeError(ErrorCode::kUnresolved,
                                 "branch to unmapped block #" +
                                     std::to_string(ps.src->targetBb) +
                                     " in " + ps.src->targetSymbol);
            if (slot != kSectionStartSlot)
                slot += static_cast<int32_t>(
                    block_base[sects[site.targetSect].object]);
            site.targetBlock = slot;

            const Opcode op = ps.src->op;
            site.isCall = op == Opcode::Call;
            site.isFallThrough = ps.src->isFallThrough;
            site.shortOp =
                op == Opcode::JccNear ? Opcode::JccShort : Opcode::JmpShort;
            site.longSize =
                static_cast<uint8_t>(isa::Instruction::sizeOf(op));
            site.shortSize = static_cast<uint8_t>(
                isa::Instruction::sizeOf(site.shortOp));
        }
        return support::okStatus();
    };
    sched::parallelFor(threads, linked_objects, [&](size_t o) {
        site_errors[o] = resolveSites(o);
    });
    for (const support::Status &error : site_errors)
        if (!error.ok())
            return error;

    // Parent functions, interned: the function id of every section.
    std::vector<NameEntry> functions;
    {
        std::vector<NameEntry> parents;
        parents.reserve(sects.size());
        for (uint32_t i = 0; i < sects.size(); ++i)
            parents.push_back(
                {sects[i].prep->parentHash, i, sects[i].prep->parentFunction});
        std::sort(parents.begin(), parents.end(), byHashThenId);
        size_t run = 0;
        for (size_t i = 0; i < parents.size(); ++i) {
            if (i == 0 || parents[i].hash != parents[i - 1].hash)
                run = functions.size();
            int64_t id = -1;
            for (size_t f = run; f < functions.size(); ++f)
                if (*functions[f].name == *parents[i].name)
                    id = functions[f].id;
            if (id < 0) {
                id = static_cast<int64_t>(functions.size());
                functions.push_back({parents[i].hash,
                                     static_cast<uint32_t>(id),
                                     parents[i].name});
            }
            sects[parents[i].id].function = static_cast<uint32_t>(id);
        }
    }

    // Modelled memory: runtime floor (allocator, string tables, output
    // bookkeeping) + inputs buffered + internal structures.
    meter.charge(192 * 1024);
    meter.charge(stats.inputBytes);
    meter.charge(sects.size() * 160 + sites.size() * 56);
    meter.charge(block_count * 24);

    uint64_t base = opts.textBase;
    if (opts.hugePagesText)
        base = alignUp(base, kHugePage);

    // ---- Layout + relaxation under the overflow quarantine -------------
    //
    // The symbol ordering file can place a function's sections anywhere in
    // the image; at real scale a bad ordering (or a hostile knob setting)
    // can push a branch past its encodable displacement.  Rather than
    // failing the whole link, the offending *function* is quarantined:
    // its sections drop out of the ordered prefix back to input order,
    // and sizing reruns.  Each round quarantines at least one new
    // function, so the loop terminates.
    std::vector<uint64_t> block_offsets(block_count, 0);
    std::vector<uint32_t> order;
    order.reserve(sects.size());

    // A section's size and the offsets inside it do not depend on where
    // it lands, so sections size in parallel; a serial prefix over the
    // layout order then places them.  Returns the image end.
    auto computeLayout = [&]() {
        sched::parallelForChunks(threads, sects.size(),
                                 [&](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                Sect &sect = sects[i];
                uint64_t off = 0;
                uint64_t *block_off = block_offsets.data() + sect.blockBase;
                for (uint32_t c = sect.prep->chunkBegin;
                     c < sect.prep->chunkEnd; ++c) {
                    const Chunk &chunk = sect.chunks[c];
                    if (chunk.startsBlock)
                        *block_off++ = off;
                    off += chunk.size;
                    if (chunk.site >= 0) {
                        Site &site = sites[sect.siteBase + chunk.site];
                        site.offset = off;
                        off += site.encodedSize();
                    }
                }
                sect.size = off;
            }
        });
        uint64_t cursor = base;
        for (uint32_t idx : order) {
            Sect &sect = sects[idx];
            sect.addr = alignUp(cursor, sect.prep->alignment);
            cursor = sect.addr + sect.size;
        }
        return cursor;
    };

    auto targetAddress = [&](const Site &site) {
        uint64_t addr = sects[site.targetSect].addr;
        return site.targetBlock == kSectionStartSlot
                   ? addr
                   : addr + block_offsets[site.targetBlock];
    };

    // Displacements the near (rel32) forms can encode, possibly narrowed
    // by the test knob.
    const int64_t max_disp =
        std::min<int64_t>(opts.maxBranchDisplacement, INT32_MAX);

    // The symbol ordering file, resolved once.
    std::vector<uint32_t> ordered;
    ordered.reserve(opts.symbolOrder.size());
    for (const auto &name : opts.symbolOrder) {
        int64_t idx = findSect(name);
        if (idx >= 0)
            ordered.push_back(static_cast<uint32_t>(idx));
    }

    std::vector<uint32_t> branches; ///< Every non-call site.
    for (uint32_t i = 0; i < sites.size(); ++i)
        if (!sites[i].isCall)
            branches.push_back(i);

    std::set<std::string> quarantined_fns;
    std::vector<char> quarantined(functions.size(), 0);
    std::vector<char> placed(sects.size());
    uint64_t image_end = 0;
    for (;;) {
        // Global layout order (symbol ordering file, paper 3.4), minus
        // quarantined functions.
        order.clear();
        std::fill(placed.begin(), placed.end(), 0);
        for (uint32_t idx : ordered) {
            if (placed[idx] || quarantined[sects[idx].function])
                continue;
            placed[idx] = 1;
            order.push_back(idx);
        }
        for (uint32_t i = 0; i < sects.size(); ++i) {
            if (!placed[i])
                order.push_back(i);
        }

        // All sites start Long (compiler-emitted near forms).
        for (auto &site : sites)
            site.state = SiteState::Long;
        constexpr int kMaxIterations = 64;
        constexpr int kGrowOnlyAfter = 48;
        bool changed = true;
        int iter = 0;
        while (changed && iter < kMaxIterations) {
            ++iter;
            computeLayout();
            // Each site's decision reads only this round's layout and its
            // own state, so the order the sites decide in is immaterial.
            std::atomic<bool> moved{false};
            sched::parallelForChunks(threads, branches.size(),
                                     [&](size_t begin, size_t end) {
                bool any = false;
                for (size_t k = begin; k < end; ++k) {
                    Site &site = sites[branches[k]];
                    uint64_t site_start =
                        sects[site.sect].addr + site.offset;
                    uint64_t target = targetAddress(site);

                    SiteState desired = SiteState::Long;
                    if (opts.relax) {
                        // Fall-through deletion: the jump lands exactly
                        // past its own encoding, so removing it preserves
                        // control flow.
                        if (site.isFallThrough &&
                            target == site_start + site.encodedSize()) {
                            desired = SiteState::Deleted;
                        } else {
                            int64_t disp = static_cast<int64_t>(target) -
                                           static_cast<int64_t>(
                                               site_start + site.shortSize);
                            desired = isa::fitsRel8(disp)
                                          ? SiteState::Short
                                          : SiteState::Long;
                        }
                    }
                    if (desired != site.state) {
                        // Late iterations only allow growing, which
                        // guarantees convergence even with
                        // alignment-induced oscillation.
                        if (iter > kGrowOnlyAfter &&
                            desired != SiteState::Long)
                            continue;
                        site.state = desired;
                        any = true;
                    }
                }
                if (any)
                    moved.store(true, std::memory_order_relaxed);
            });
            changed = moved.load(std::memory_order_relaxed);
        }
        stats.relaxIterations = static_cast<uint32_t>(iter);
        image_end = computeLayout();

        // Scan every surviving site for displacement overflow.  Short
        // forms were verified by fitsRel8 during sizing; near forms
        // (including calls) must fit max_disp.
        std::set<std::string> offenders;
        std::mutex offenders_mu;
        sched::parallelForChunks(threads, sites.size(),
                                 [&](size_t begin, size_t end) {
            for (size_t k = begin; k < end; ++k) {
                const Site &site = sites[k];
                if (site.state != SiteState::Long)
                    continue;
                uint64_t site_start = sects[site.sect].addr + site.offset;
                int64_t disp = static_cast<int64_t>(targetAddress(site)) -
                               static_cast<int64_t>(site_start +
                                                    site.encodedSize());
                if (disp > max_disp || disp < -max_disp - 1) {
                    std::lock_guard<std::mutex> lock(offenders_mu);
                    offenders.insert(
                        *sects[site.sect].prep->parentFunction);
                }
            }
        });
        if (offenders.empty())
            break;

        bool progress = false;
        for (const auto &fn : offenders)
            progress |= quarantined_fns.insert(fn).second;
        if (!opts.quarantineOnOverflow || !progress)
            return makeError(ErrorCode::kOutOfRange,
                             "branch displacement overflow in function " +
                                 *offenders.begin());
        for (const auto &sect : sects)
            if (quarantined_fns.count(*sect.prep->parentFunction))
                quarantined[sect.function] = 1;
    }
    stats.sectionsLinked = static_cast<uint32_t>(order.size());
    stats.quarantinedFunctions =
        static_cast<uint32_t>(quarantined_fns.size());
    stats.quarantined.assign(quarantined_fns.begin(),
                             quarantined_fns.end());

    for (const auto &site : sites) {
        if (site.state == SiteState::Deleted)
            ++stats.fallThroughsDeleted;
        else if (site.state == SiteState::Short)
            ++stats.branchesShrunk;
    }

    // ---- Emit the final image ------------------------------------------
    Executable exe;
    exe.name = opts.outputName;
    exe.textBase = base;
    exe.hugePagesText = opts.hugePagesText;
    exe.text.assign(image_end - base,
                    static_cast<uint8_t>(Opcode::Nop));
    meter.charge(exe.text.size());

    // Sections occupy disjoint ranges of the image: they emit in
    // parallel.
    sched::parallelForChunks(threads, order.size(),
                             [&](size_t begin, size_t end) {
        std::vector<uint8_t> encoded;
        for (size_t k = begin; k < end; ++k) {
            const Sect &sect = sects[order[k]];
            uint64_t pos = sect.addr - base;
            for (uint32_t c = sect.prep->chunkBegin;
                 c < sect.prep->chunkEnd; ++c) {
                const Chunk &chunk = sect.chunks[c];
                std::copy(chunk.bytes->begin(), chunk.bytes->end(),
                          exe.text.begin() + pos);
                pos += chunk.size;
                if (chunk.site < 0)
                    continue;
                const Site &site = sites[sect.siteBase + chunk.site];
                if (site.state == SiteState::Deleted)
                    continue;
                isa::Instruction inst;
                inst.op = site.state == SiteState::Short ? site.shortOp
                                                          : site.src->op;
                inst.flags = site.src->flags;
                inst.bias = site.src->bias;
                inst.branchId = site.src->branchId;
                uint64_t site_start = sect.addr + site.offset;
                int64_t disp = static_cast<int64_t>(targetAddress(site)) -
                               static_cast<int64_t>(site_start +
                                                    site.encodedSize());
                // The overflow scan above guarantees encodability here.
                PROPELLER_CHECK(disp >= INT32_MIN && disp <= INT32_MAX,
                                "branch displacement overflow");
                inst.rel = static_cast<int32_t>(disp);
                encoded.clear();
                inst.encode(encoded);
                PROPELLER_CHECK(encoded.size() == site.encodedSize(),
                                "encoded size mismatch");
                std::copy(encoded.begin(), encoded.end(),
                          exe.text.begin() + pos);
                pos += encoded.size();
            }
            PROPELLER_CHECK(pos == sect.addr - base + sect.size,
                            "section emit cursor mismatch");
        }
    });

    // ---- Symbols, BB map, integrity checks ------------------------------
    for (size_t o = 0; o < linked_objects; ++o) {
        const PreparedObject::Parts &p = objects[o].parts();
        if (p.mapsRejected) {
            ++stats.addrMapsRejected;
            stats.rejectedAddrMapObjects.push_back(p.object->name);
        }
    }

    // Fingerprints by parent function: the last map of a function sets
    // its hash, the first entry of a block id wins.
    std::vector<FuncFp> fp_of(functions.size());
    for (size_t o = 0; o < linked_objects; ++o) {
        const PreparedObject::Parts &p = objects[o].parts();
        for (const FpMap &fm : p.fpMaps) {
            int64_t f = findName(functions, fm.map->functionName,
                                 fm.nameHash);
            if (f < 0)
                continue; // Names no linked section's function.
            FuncFp &fp = fp_of[f];
            const FpBlock *begin = p.fpBlocks.data() + fm.blockBegin;
            const FpBlock *end = p.fpBlocks.data() + fm.blockEnd;
            if (fp.present) {
                // A function mapped twice: merge, earlier maps first.
                if (fp.merged.empty())
                    fp.merged.assign(fp.begin, fp.end);
                fp.merged.insert(fp.merged.end(), begin, end);
                std::stable_sort(fp.merged.begin(), fp.merged.end(),
                                 [](const FpBlock &a, const FpBlock &b) {
                                     return a.bbId < b.bbId;
                                 });
                begin = fp.merged.data();
                end = begin + fp.merged.size();
            }
            fp.present = true;
            fp.functionHash = fm.map->functionHash;
            fp.begin = begin;
            fp.end = end;
        }
    }

    // Unwind coverage is re-derived from the *final* layout: the
    // codegen-time FrameDescriptor::codeLength predates relaxation, so
    // each FDE's covered range is the post-relaxation section extent.
    // The FDEs' sections resolve per object in parallel.
    std::vector<size_t> fde_base(linked_objects + 1, 0);
    for (size_t o = 0; o < linked_objects; ++o)
        fde_base[o + 1] =
            fde_base[o] + objects[o].parts().object->frames.size();
    std::vector<int64_t> fde_sect(fde_base.back());
    sched::parallelFor(threads, linked_objects, [&](size_t o) {
        const auto &frames = objects[o].parts().object->frames;
        for (size_t j = 0; j < frames.size(); ++j)
            fde_sect[fde_base[o] + j] = findSect(frames[j].sectionSymbol);
    });
    std::vector<char> has_fde(sects.size(), 0);
    for (int64_t idx : fde_sect)
        if (idx >= 0)
            has_fde[idx] = 1;

    // One serial pass in layout order gives every mapped section its
    // function's map and its first block there, and every covered
    // section its frame; the outputs are then sized once and filled in
    // parallel.
    std::vector<int32_t> func_map_index(functions.size(), -1);
    std::vector<ExecFuncMap> func_maps;
    std::vector<uint32_t> map_sizes;
    std::vector<int32_t> sect_map(order.size(), -1);
    std::vector<uint32_t> sect_block(order.size(), 0);
    std::vector<uint32_t> sect_frame(order.size(), 0);
    size_t frame_count = 0;
    for (size_t k = 0; k < order.size(); ++k) {
        const Sect &sect = sects[order[k]];
        const PreparedSect &ps = *sect.prep;
        if (has_fde[order[k]])
            sect_frame[k] = static_cast<uint32_t>(frame_count++);
        if (ps.isHandAsm || !objects[sect.object].parts().mapsKept)
            continue;
        int32_t &map_index = func_map_index[sect.function];
        if (map_index < 0) {
            map_index = static_cast<int32_t>(func_maps.size());
            func_maps.push_back(ExecFuncMap{*ps.parentFunction, {}});
            const FuncFp &fp = fp_of[sect.function];
            if (fp.present)
                func_maps.back().functionHash = fp.functionHash;
            map_sizes.push_back(0);
        }
        sect_map[k] = map_index;
        sect_block[k] = map_sizes[map_index];
        map_sizes[map_index] += ps.blockEnd - ps.blockBegin;
    }
    sched::parallelForChunks(threads, func_maps.size(),
                             [&](size_t begin, size_t end) {
        for (size_t m = begin; m < end; ++m)
            func_maps[m].blocks.resize(map_sizes[m]);
    });
    exe.symbols.resize(order.size());
    exe.frames.resize(frame_count);

    sched::parallelForChunks(threads, order.size(),
                             [&](size_t begin, size_t end) {
        for (size_t k = begin; k < end; ++k) {
            const Sect &sect = sects[order[k]];
            const PreparedSect &ps = *sect.prep;
            FuncRange &range = exe.symbols[k];
            range.name = *ps.symbol;
            range.parentFunction = *ps.parentFunction;
            range.start = sect.addr;
            range.end = sect.addr + sect.size;
            range.isPrimary = ps.isPrimary;
            range.isHandAsm = ps.isHandAsm;
            if (has_fde[order[k]])
                exe.frames[sect_frame[k]] = FrameCoverage{
                    *ps.symbol, sect.addr, sect.addr + sect.size};
            if (sect_map[k] < 0)
                continue;

            const PreparedObject::Parts &p = objects[sect.object].parts();
            const FuncFp &fp = fp_of[sect.function];
            ExecBlock *out =
                func_maps[sect_map[k]].blocks.data() + sect_block[k];
            const uint32_t nblocks = ps.blockEnd - ps.blockBegin;
            const uint64_t *offsets = block_offsets.data() + sect.blockBase;
            for (uint32_t slot = 0; slot < nblocks; ++slot) {
                const BlockSlot &bs = p.blocks[ps.blockBegin + slot];
                ExecBlock &block = out[slot];
                block.bbId = bs.bbId;
                block.address = sect.addr + offsets[slot];
                uint64_t next = slot + 1 < nblocks
                                    ? sect.addr + offsets[slot + 1]
                                    : sect.addr + sect.size;
                block.size = static_cast<uint32_t>(next - block.address);
                block.flags = bs.flags;
                if (fp.present) {
                    const FpBlock *it = std::lower_bound(
                        fp.begin, fp.end, bs.bbId,
                        [](const FpBlock &b, uint32_t id) {
                            return b.bbId < id;
                        });
                    if (it != fp.end && it->bbId == bs.bbId) {
                        block.hash = it->entry->hash;
                        block.succs = it->entry->succs;
                    }
                }
            }
        }
    });
    exe.bbAddrMap = std::move(func_maps);

    // Binary identity: the linked text content plus the section layout.
    // Any relink that moves or changes code — new compiler output, a
    // different cluster assignment, even a pure reordering — produces a
    // different identity, which is exactly when address-based profile
    // mapping stops being sound.
    {
        uint64_t id = fnv1a(exe.text);
        id = hashCombine(id, exe.textBase);
        for (const auto &sym : exe.symbols) {
            id = hashCombine(id, fnv1a(sym.name));
            id = hashCombine(id, sym.start);
            id = hashCombine(id, sym.end);
        }
        exe.identityHash = id;
    }

    // Entry point.
    int64_t entry = findSect(opts.entrySymbol);
    if (entry < 0)
        return makeError(ErrorCode::kUnresolved,
                         "entry symbol " + opts.entrySymbol + " not found");
    exe.entryAddress = sects[entry].addr;

    // Startup integrity checks: hash the primary range of each checked
    // function as it exists in this image, in parallel; the first
    // unresolved name in input order fails the link.
    std::vector<const std::string *> checked;
    for (size_t o = 0; o < linked_objects; ++o)
        for (const auto &fn :
             objects[o].parts().object->integrityCheckedFunctions)
            checked.push_back(&fn);
    exe.integrityChecks.resize(checked.size());
    std::vector<char> unresolved(checked.size(), 0);
    sched::parallelForChunks(threads, checked.size(),
                             [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
            int64_t idx = findSect(*checked[i]);
            if (idx < 0) {
                unresolved[i] = 1;
                continue;
            }
            const Sect &sect = sects[idx];
            IntegrityCheck &check = exe.integrityChecks[i];
            check.function = *checked[i];
            check.expectedHash =
                fnv1a(exe.text.data() + (sect.addr - base), sect.size);
        }
    });
    for (size_t i = 0; i < checked.size(); ++i)
        if (unresolved[i])
            return makeError(ErrorCode::kUnresolved,
                             "integrity-checked function " + *checked[i] +
                                 " has no section symbol");

    // ---- Size breakdown (Figure 6) --------------------------------------
    exe.sizes.text = exe.text.size();
    for (size_t o = 0; o < linked_objects; ++o) {
        const SectionSizes &s = objects[o].parts().sizes;
        exe.sizes.ehFrame += s.ehFrame;
        exe.sizes.bbAddrMap += s.bbAddrMap;
        exe.sizes.relocs += s.relocs;
        exe.sizes.debug += s.debug;
        exe.sizes.other += s.other;
    }

    stats.peakMemory = meter.peak();
    if (opts.meter) {
        // Pulse the external phase meter with this action's peak.
        opts.meter->charge(stats.peakMemory);
        opts.meter->release(stats.peakMemory);
    }
    if (stats_out)
        *stats_out = stats;
    return exe;
}

} // namespace

support::StatusOr<Executable>
linkChecked(const std::vector<PreparedObject> &objects, const Options &opts,
            LinkStats *stats_out)
{
    // One region for the whole link: outside a task graph its loops share
    // one set of workers instead of each starting threads of its own.
    std::optional<support::StatusOr<Executable>> result;
    sched::parallelRegion(opts.threads, [&] {
        result.emplace(linkPrepared(objects, opts, stats_out));
    });
    return std::move(*result);
}

Executable
link(const std::vector<PreparedObject> &objects, const Options &opts,
     LinkStats *stats_out)
{
    auto exe = linkChecked(objects, opts, stats_out);
    PROPELLER_CHECK(exe.ok(), exe.status().toString().c_str());
    return std::move(exe).value();
}

support::StatusOr<Executable>
linkChecked(const std::vector<ObjectFile> &objects, const Options &opts,
            LinkStats *stats_out)
{
    std::vector<PreparedObject> prepared;
    prepared.reserve(objects.size());
    for (const auto &obj : objects)
        prepared.push_back(prepareObject(obj, opts));
    return linkChecked(prepared, opts, stats_out);
}

Executable
link(const std::vector<ObjectFile> &objects, const Options &opts,
     LinkStats *stats_out)
{
    auto exe = linkChecked(objects, opts, stats_out);
    PROPELLER_CHECK(exe.ok(), exe.status().toString().c_str());
    return std::move(exe).value();
}

Executable
stripAddrMaps(const Executable &kept, LinkStats *stats)
{
    Executable exe;
    exe.name = kept.name;
    exe.textBase = kept.textBase;
    exe.entryAddress = kept.entryAddress;
    exe.text = kept.text;
    exe.identityHash = kept.identityHash;
    exe.hugePagesText = kept.hugePagesText;
    exe.symbols = kept.symbols;
    exe.integrityChecks = kept.integrityChecks;
    exe.frames = kept.frames;
    exe.sizes = kept.sizes;
    exe.sizes.bbAddrMap = 0;
    if (stats) {
        stats->addrMapsRejected = 0;
        stats->rejectedAddrMapObjects.clear();
    }
    return exe;
}

} // namespace propeller::linker
