#include "propeller/addr_map_index.h"

#include <algorithm>
#include <numeric>

namespace propeller::core {

namespace {

constexpr uint32_t kQuarantined = UINT32_MAX;

} // namespace

BlockRef
AddrMapIndex::toRef(const Interval &iv)
{
    BlockRef ref;
    ref.funcIndex = iv.funcIndex;
    ref.bbId = iv.bbId;
    ref.blockStart = iv.start;
    ref.blockEnd = iv.end;
    ref.flags = iv.flags;
    ref.hash = iv.hash;
    return ref;
}

AddrMapIndex::AddrMapIndex(const linker::Executable &exe)
{
    const std::vector<linker::ExecFuncMap> &maps = exe.bbAddrMap;
    const uint32_t nmaps = static_cast<uint32_t>(maps.size());

    // Group the maps by function (a function may carry several), in
    // first-appearance order, then list each group's maps in map order.
    std::unordered_map<std::string_view, uint32_t> group_of;
    group_of.reserve(nmaps);
    std::vector<uint32_t> map_group(nmaps);
    uint32_t ngroups = 0;
    for (uint32_t m = 0; m < nmaps; ++m) {
        auto [it, inserted] = group_of.emplace(maps[m].function, ngroups);
        ngroups += inserted ? 1 : 0;
        map_group[m] = it->second;
    }
    std::vector<uint32_t> group_begin(ngroups + 1, 0);
    for (uint32_t g : map_group)
        ++group_begin[g + 1];
    std::partial_sum(group_begin.begin(), group_begin.end(),
                     group_begin.begin());
    std::vector<uint32_t> group_maps(nmaps);
    {
        std::vector<uint32_t> cursor(group_begin.begin(),
                                     group_begin.end() - 1);
        for (uint32_t m = 0; m < nmaps; ++m)
            group_maps[cursor[map_group[m]]++] = m;
    }

    // Sanitation: a function is indexed only if its combined block list
    // fits the text image and has neither duplicate ids nor overlapping
    // (nonzero-size) blocks.  Sane functions take indices in group order
    // and their id-sorted blocks fill blockIds_ and the successor table.
    const uint64_t text_start = exe.textBase;
    const uint64_t text_end = exe.textBase + exe.text.size();
    std::vector<std::pair<uint32_t, const linker::ExecBlock *>> ids;
    std::vector<std::pair<uint64_t, uint64_t>> extents;
    std::vector<uint32_t> func_of_group(ngroups, kQuarantined);
    blockBegin_.push_back(0);
    succBegin_.push_back(0);
    for (uint32_t g = 0; g < ngroups; ++g) {
        ids.clear();
        extents.clear();
        bool sane = true;
        for (uint32_t k = group_begin[g]; sane && k < group_begin[g + 1];
             ++k) {
            for (const auto &block : maps[group_maps[k]].blocks) {
                uint64_t end = block.address + block.size;
                if (block.address < text_start || end > text_end ||
                    end < block.address) {
                    sane = false; // Outside the text image (or wraps).
                    break;
                }
                ids.emplace_back(block.bbId, &block);
                if (block.size > 0)
                    extents.emplace_back(block.address, end);
            }
        }
        if (sane) {
            std::sort(ids.begin(), ids.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            sane = std::adjacent_find(ids.begin(), ids.end(),
                                      [](const auto &a, const auto &b) {
                                          return a.first == b.first;
                                      }) == ids.end(); // Duplicate id.
        }
        if (sane) {
            std::sort(extents.begin(), extents.end());
            for (size_t i = 1; sane && i < extents.size(); ++i)
                sane = extents[i - 1].second <= extents[i].first;
        }
        const linker::ExecFuncMap &first = maps[group_maps[group_begin[g]]];
        if (!sane) {
            quarantined_.push_back(first.function);
            continue;
        }
        func_of_group[g] = static_cast<uint32_t>(functionNames_.size());
        functionNames_.push_back(first.function);
        functionHashes_.push_back(first.functionHash);
        for (const auto &[id, block] : ids) {
            blockIds_.push_back(id);
            succs_.insert(succs_.end(), block->succs.begin(),
                          block->succs.end());
            succBegin_.push_back(static_cast<uint32_t>(succs_.size()));
        }
        blockBegin_.push_back(static_cast<uint32_t>(blockIds_.size()));
    }
    std::sort(quarantined_.begin(), quarantined_.end());
    functionIndex_.reserve(functionNames_.size());
    for (uint32_t f = 0; f < functionNames_.size(); ++f)
        functionIndex_.emplace(functionNames_[f], f);

    intervals_.reserve(blockIds_.size());
    for (uint32_t m = 0; m < nmaps; ++m) {
        const uint32_t f = func_of_group[map_group[m]];
        if (f == kQuarantined)
            continue;
        for (const auto &block : maps[m].blocks)
            intervals_.push_back({block.address, block.address + block.size,
                                  f, block.bbId, block.flags, block.hash});
    }
    // Stable sort: zero-size blocks (fall-through-only blocks whose
    // encoding is empty) share their successor's address and must keep
    // their layout order so range walks traverse them deterministically.
    auto by_start = [](const Interval &a, const Interval &b) {
        return a.start < b.start;
    };
    if (!std::is_sorted(intervals_.begin(), intervals_.end(), by_start))
        std::stable_sort(intervals_.begin(), intervals_.end(), by_start);

    funcIntervals_.resize(intervals_.size());
    {
        std::vector<uint32_t> cursor(blockBegin_.begin(),
                                     blockBegin_.end() - 1);
        for (uint32_t i = 0; i < intervals_.size(); ++i)
            funcIntervals_[cursor[intervals_[i].funcIndex]++] = i;
    }

    // The entry block of each function sits at its primary symbol address
    // (the primary cluster begins with the entry block; a landing-pad nop
    // prefix never applies to it).  The entry block may have an empty
    // encoding (a lone fall-through branch), so take the *first* block in
    // layout order at that address rather than the containing interval.
    entryBlocks_.assign(functionNames_.size(), 0);
    for (const auto &sym : exe.symbols) {
        if (!sym.isPrimary)
            continue;
        int f = findFunction(sym.parentFunction);
        if (f < 0)
            continue;
        auto first = funcIntervals_.begin() + blockBegin_[f];
        auto last = funcIntervals_.begin() + blockBegin_[f + 1];
        auto it = std::lower_bound(first, last, sym.start,
                                   [this](uint32_t idx, uint64_t addr) {
                                       return intervals_[idx].start < addr;
                                   });
        if (it != last && intervals_[*it].start == sym.start)
            entryBlocks_[f] = intervals_[*it].bbId;
    }
}

std::optional<BlockRef>
AddrMapIndex::lookup(uint64_t addr) const
{
    auto it = std::upper_bound(
        intervals_.begin(), intervals_.end(), addr,
        [](uint64_t a, const Interval &iv) { return a < iv.start; });
    if (it == intervals_.begin())
        return std::nullopt;
    --it;
    // Ties put zero-size blocks before the non-empty block at the same
    // address, so it-1 is the block that actually contains addr.
    if (addr >= it->end)
        return std::nullopt;
    BlockRef ref = toRef(*it);
    ref.intervalIndex = static_cast<uint32_t>(it - intervals_.begin());
    return ref;
}

std::optional<BlockRef>
AddrMapIndex::next(const BlockRef &ref) const
{
    uint32_t idx = ref.intervalIndex + 1;
    if (idx >= intervals_.size())
        return std::nullopt;
    BlockRef out = toRef(intervals_[idx]);
    out.intervalIndex = idx;
    return out;
}

std::vector<BlockRef>
AddrMapIndex::blocksOf(uint32_t func_index) const
{
    std::vector<BlockRef> blocks;
    blocks.reserve(blockBegin_[func_index + 1] - blockBegin_[func_index]);
    for (uint32_t k = blockBegin_[func_index];
         k < blockBegin_[func_index + 1]; ++k) {
        const uint32_t i = funcIntervals_[k];
        BlockRef ref = toRef(intervals_[i]);
        ref.intervalIndex = i;
        blocks.push_back(ref);
    }
    return blocks;
}

int
AddrMapIndex::findFunction(std::string_view name) const
{
    auto it = functionIndex_.find(name);
    return it == functionIndex_.end() ? -1 : static_cast<int>(it->second);
}

std::span<const uint32_t>
AddrMapIndex::successors(uint32_t func_index, uint32_t bb_id) const
{
    auto first = blockIds_.begin() + blockBegin_[func_index];
    auto last = blockIds_.begin() + blockBegin_[func_index + 1];
    auto it = std::lower_bound(first, last, bb_id);
    if (it == last || *it != bb_id)
        return {};
    const size_t k = it - blockIds_.begin();
    return {succs_.data() + succBegin_[k], succs_.data() + succBegin_[k + 1]};
}

std::optional<BlockRef>
AddrMapIndex::block(uint32_t func_index, uint32_t bb_id) const
{
    for (uint32_t k = blockBegin_[func_index];
         k < blockBegin_[func_index + 1]; ++k) {
        const uint32_t i = funcIntervals_[k];
        if (intervals_[i].bbId == bb_id) {
            BlockRef ref = toRef(intervals_[i]);
            ref.intervalIndex = i;
            return ref;
        }
    }
    return std::nullopt;
}

} // namespace propeller::core
