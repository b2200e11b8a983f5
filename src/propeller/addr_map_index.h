#ifndef PROPELLER_PROPELLER_ADDR_MAP_INDEX_H
#define PROPELLER_PROPELLER_ADDR_MAP_INDEX_H

/**
 * @file
 * Address-to-basic-block resolution (paper section 3.3).
 *
 * Builds a sorted interval index over the executable's BB address map so
 * that LBR sample addresses can be mapped to (function, machine basic
 * block) pairs in O(log n) — the disassembly-free alternative to BOLT's
 * address resolution.
 */

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "linker/executable.h"

namespace propeller::core {

/** Resolution result: which block contains an address. */
struct BlockRef
{
    uint32_t funcIndex = 0; ///< Index into AddrMapIndex::functionNames().
    uint32_t bbId = 0;
    uint64_t blockStart = 0;
    uint64_t blockEnd = 0;
    uint8_t flags = 0;

    /** Stable block fingerprint (0 when the binary has v1 metadata). */
    uint64_t hash = 0;

    /** Position in the global layout order (for next()). */
    uint32_t intervalIndex = 0;

    bool operator==(const BlockRef &) const = default;
};

/**
 * Sorted interval index over an executable's BB address map.
 *
 * Construction sanitizes the metadata: a function whose map is
 * internally inconsistent — duplicate block ids, blocks outside the text
 * image, overlapping blocks — is dropped from the index entirely
 * (quarantined), so its samples simply go unmapped and the function
 * keeps its baseline layout, instead of feeding the layout pass garbage
 * intervals.  Honest metadata is indexed unchanged.
 *
 * The per-function tables are flat CSR arrays: function f owns slots
 * [blockBegin_[f], blockBegin_[f + 1]) of funcIntervals_ (its intervals
 * in address order) and of blockIds_ (its block ids, ascending), and
 * sorted block k owns succs_[succBegin_[k], succBegin_[k + 1]).
 */
class AddrMapIndex
{
  public:
    explicit AddrMapIndex(const linker::Executable &exe);
    // The name table views functionNames_' strings.
    AddrMapIndex(const AddrMapIndex &) = delete;
    AddrMapIndex &operator=(const AddrMapIndex &) = delete;

    /** Functions dropped by construction-time sanitation, sorted. */
    const std::vector<std::string> &quarantined() const
    {
        return quarantined_;
    }

    /** Resolve @p addr to the block containing it. */
    std::optional<BlockRef> lookup(uint64_t addr) const;

    /** Block following @p ref in address order (for range walks). */
    std::optional<BlockRef> next(const BlockRef &ref) const;

    /** All blocks of a function, in address order. */
    std::vector<BlockRef> blocksOf(uint32_t func_index) const;

    /** Resolve a specific (function, block id) pair. */
    std::optional<BlockRef> block(uint32_t func_index, uint32_t bb_id) const;

    const std::vector<std::string> &functionNames() const
    {
        return functionNames_;
    }

    /**
     * Find a function index by name; -1 if the binary has no such map
     * or it was quarantined.
     */
    int findFunction(std::string_view name) const;

    /** Whole-function fingerprint (0 when the binary has v1 metadata). */
    uint64_t functionHash(uint32_t func_index) const
    {
        return functionHashes_[func_index];
    }

    /**
     * Static successor block ids of (function, block), from the v2
     * address map; empty for v1 metadata or unknown blocks.
     */
    std::span<const uint32_t> successors(uint32_t func_index,
                                         uint32_t bb_id) const;

    /** Entry block id of function @p func_index (lowest block address of
     *  the primary range is not necessarily the entry; this is the block
     *  at the function symbol address). */
    uint32_t entryBlock(uint32_t func_index) const
    {
        return entryBlocks_[func_index];
    }

    size_t blockCount() const { return intervals_.size(); }

    /** Modelled in-memory footprint in bytes. */
    uint64_t
    footprint() const
    {
        return intervals_.size() * sizeof(Interval) +
               functionNames_.size() * 48;
    }

  private:
    struct Interval
    {
        uint64_t start;
        uint64_t end;
        uint32_t funcIndex;
        uint32_t bbId;
        uint8_t flags;
        uint64_t hash;
    };

    static BlockRef toRef(const Interval &iv);

    std::vector<Interval> intervals_; ///< Sorted by start address.
    std::vector<std::string> functionNames_;
    /** Name -> function index; keys view functionNames_. */
    std::unordered_map<std::string_view, uint32_t> functionIndex_;
    std::vector<std::string> quarantined_;
    std::vector<uint32_t> entryBlocks_;
    std::vector<uint64_t> functionHashes_;
    std::vector<uint32_t> blockBegin_;    ///< Per function, plus an end.
    std::vector<uint32_t> funcIntervals_; ///< Interval indices.
    std::vector<uint32_t> blockIds_;      ///< Ascending per function.
    std::vector<uint32_t> succBegin_;     ///< Per sorted block, plus an end.
    std::vector<uint32_t> succs_;         ///< Static successor ids (v2).
};

} // namespace propeller::core

#endif // PROPELLER_PROPELLER_ADDR_MAP_INDEX_H
