#ifndef PROPELLER_BUILD_CACHE_H
#define PROPELLER_BUILD_CACHE_H

/**
 * @file
 * The content-addressed artifact cache of the distributed build system.
 *
 * Substitute for the remote action cache the paper's Phase 4 leans on
 * (section 3.4): code generation actions are pure functions of their
 * inputs, so an action whose input fingerprint is unchanged — a *cold*
 * module whose cluster directives are empty — is never re-executed; its
 * serialized object file streams straight out of the cache into the
 * relink.  This is what makes relinking a whole warehouse-scale binary
 * cheaper than a full build: only the hot modules (10-33% of objects)
 * pay for backends again.
 *
 * Keys are 64-bit content fingerprints (contentHash over the module IR
 * plus the layout/prefetch directives that affect it — see
 * Workflow's action fingerprinting).  Values are serialized
 * elf::ObjectFile byte images.
 *
 * Integrity: every entry stores a content hash of its bytes, computed at
 * put() time.  lookup() re-hashes the stored bytes and treats a mismatch
 * as storage corruption: the entry is evicted, CacheStats::corruptions
 * is bumped, and the lookup reports a miss so the caller re-executes the
 * action.  A cache must never serve bytes it cannot vouch for — a stale
 * or bit-flipped artifact silently linked into the binary is the worst
 * failure mode a relinking optimizer can have.
 *
 * Thread safety: all operations serialize on an internal mutex, which
 * models the real system (the action cache is a remote service with its
 * own serialization point).  The task-graph relink engine performs
 * lookups and insertions from concurrent codegen tasks; accounting
 * stays deterministic because every task addresses a distinct key, so
 * hit/miss/corruption totals are order-independent sums.  Returned byte
 * pointers stay valid under concurrent inserts of *other* keys
 * (unordered_map never moves values), and no two tasks touch the same
 * key concurrently.
 */

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "support/hash.h"

namespace propeller::buildsys {

/** Hit/miss accounting for one cache instance. */
struct CacheStats
{
    uint64_t hits = 0;     ///< lookup() calls that found a valid entry.
    uint64_t misses = 0;   ///< lookup() calls that found nothing usable.
    uint64_t entries = 0;  ///< Artifacts currently stored.
    uint64_t storedBytes = 0; ///< Total serialized bytes stored.

    /**
     * Entries whose stored bytes no longer matched their content hash
     * (detected at lookup() or scrub() time) and were evicted.
     */
    uint64_t corruptions = 0;

    /**
     * Layout tier only: lookups served through the input-digest alias
     * index after the primary (exact memo key) lookup missed — a
     * stale-matcher-primed reuse of a layout computed against an older
     * binary version (see ArtifactCache::lookupLayoutPrimed).  A primed
     * hit does not count toward hits/misses: the primary lookup already
     * recorded its miss, and hitRate() keeps meaning "exact memo key
     * hit rate".
     */
    uint64_t primedHits = 0;

    /** Fraction of lookups that hit; 0 when nothing was looked up. */
    double
    hitRate() const
    {
        uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/** Content-keyed object artifact cache with integrity verification. */
class ArtifactCache
{
  public:
    ArtifactCache() = default;

    /**
     * Look up an artifact by content key, verifying its integrity hash.
     * A verified entry counts a hit.  An entry whose bytes fail
     * verification is evicted, counts a corruption *and* a miss, and the
     * lookup returns nullptr so the caller rebuilds the action.
     *
     * @return the stored bytes, or nullptr if absent or corrupt.  The
     *         pointer stays valid until the entry is overwritten.
     */
    const std::vector<uint8_t> *
    lookup(uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        return tierLookup(entries_, stats_, key);
    }

    /** Store (or replace) an artifact under @p key. */
    void
    put(uint64_t key, std::vector<uint8_t> bytes)
    {
        std::lock_guard<std::mutex> lock(mu_);
        tierPut(entries_, stats_, key, std::move(bytes));
    }

    /**
     * Layout memoization tier: per-function Ext-TSP results keyed on
     * (CFG hash, profile-count digest, layout-options fingerprint) —
     * see WpaPipeline::layoutFingerprint.  Kept separate from the
     * object tier so hit-rate accounting (the incremental-relink
     * headline metric) and fault-injection key enumeration stay
     * per-tier; integrity rules are identical, and scrub() sweeps both.
     */
    const std::vector<uint8_t> *
    lookupLayout(uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        return tierLookup(layoutEntries_, layoutStats_, key);
    }

    /**
     * Store (or replace) a layout artifact under @p key.  A nonzero
     * @p digest (the function's layoutInputDigest, see layout.h)
     * additionally registers the entry in the digest alias index so
     * lookupLayoutPrimed() can find it after the function's exact memo
     * key changed; the newest entry for a digest wins.
     */
    void
    putLayout(uint64_t key, std::vector<uint8_t> bytes,
              uint64_t digest = 0)
    {
        std::lock_guard<std::mutex> lock(mu_);
        tierPut(layoutEntries_, layoutStats_, key, std::move(bytes),
                digest);
        if (digest != 0)
            layoutAlias_[digest] = key;
    }

    /**
     * Primed lookup for the layout tier: find an entry whose *input
     * digest* matches — the exact memo key may belong to a different
     * (older) binary version, but equal digests mean the layout pass
     * would read identical inputs, so the cached result is reusable
     * verbatim.  Counts CacheStats::primedHits on success and never
     * touches hits/misses (callers only try this after the primary
     * lookup already counted its miss).
     *
     * @return the stored bytes, or nullptr if no (valid) entry carries
     *         @p digest.  Corrupt entries are evicted and counted as
     *         with lookupLayout().
     */
    const std::vector<uint8_t> *
    lookupLayoutPrimed(uint64_t digest)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto alias = layoutAlias_.find(digest);
        if (alias == layoutAlias_.end())
            return nullptr;
        auto it = layoutEntries_.find(alias->second);
        if (it == layoutEntries_.end()) {
            // Dangling alias: the entry was evicted since registration.
            layoutAlias_.erase(alias);
            return nullptr;
        }
        if (entryHash(it->second.bytes) != it->second.hash) {
            eraseEntry(layoutEntries_, layoutStats_, it);
            ++layoutStats_.corruptions;
            return nullptr;
        }
        ++layoutStats_.primedHits;
        return &it->second.bytes;
    }

    /** evictCorrupt for the layout tier (decode-level damage). */
    void
    evictCorruptLayout(uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = layoutEntries_.find(key);
        if (it == layoutEntries_.end())
            return;
        eraseEntry(layoutEntries_, layoutStats_, it);
        ++layoutStats_.corruptions;
    }

    /**
     * Evict @p key as corrupt, counting a corruption.  Used by callers
     * whose *structural* validation (e.g. object deserialization) caught
     * damage the byte hash could not — an artifact poisoned before it
     * was stored hashes consistently but still must not be served again.
     */
    void
    evictCorrupt(uint64_t key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it == entries_.end())
            return;
        eraseEntry(entries_, stats_, it);
        ++stats_.corruptions;
    }

    /**
     * Verify every stored entry in both tiers, evicting (and counting)
     * corrupt ones.  Does not touch hit/miss statistics.
     * @return the number of entries evicted.
     */
    uint64_t
    scrub()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return tierScrub(entries_, stats_) +
               tierScrub(layoutEntries_, layoutStats_);
    }

    /**
     * Mutate the *stored* bytes of @p key in place without updating the
     * integrity hash — the fault-injection seam modelling silent storage
     * corruption (the hash describes what was stored; the bytes no
     * longer match it).  With @p rehash the hash is recomputed after the
     * mutation, modelling an artifact poisoned *before* it reached the
     * store: hash verification then passes and only structural
     * validation of the artifact can catch it.
     *
     * @return false if @p key is absent.
     */
    template <typename Mutator>
    bool
    corruptStored(uint64_t key, Mutator &&mutate, bool rehash = false)
    {
        std::lock_guard<std::mutex> lock(mu_);
        return tierCorrupt(entries_, stats_, key,
                           std::forward<Mutator>(mutate), rehash);
    }

    /** corruptStored for the layout tier (scrub-path integrity tests). */
    template <typename Mutator>
    bool
    corruptStoredLayout(uint64_t key, Mutator &&mutate,
                        bool rehash = false)
    {
        std::lock_guard<std::mutex> lock(mu_);
        return tierCorrupt(layoutEntries_, layoutStats_, key,
                           std::forward<Mutator>(mutate), rehash);
    }

    /** Presence test; does not count toward hit/miss statistics. */
    bool
    contains(uint64_t key) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return entries_.count(key) != 0;
    }

    /**
     * All stored object-tier keys, sorted (deterministic iteration for
     * faults; the fault injector's cached-object corruption class
     * targets exactly this tier).
     */
    std::vector<uint64_t>
    keys() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return tierKeys(entries_);
    }

    /** All stored layout-tier keys, sorted. */
    std::vector<uint64_t>
    layoutKeys() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return tierKeys(layoutEntries_);
    }

    const CacheStats &stats() const { return stats_; }
    const CacheStats &layoutStats() const { return layoutStats_; }

    /** Zero the layout tier's hit/miss/primed counters (per-run
     *  accounting over a long-lived cache). */
    void
    resetLayoutCounters()
    {
        std::lock_guard<std::mutex> lock(mu_);
        layoutStats_.hits = 0;
        layoutStats_.misses = 0;
        layoutStats_.primedHits = 0;
    }

    /**
     * Byte image of both tiers for cross-process warm reruns: magic
     * "PAC3", per-tier entry counts, entries in sorted key order (each
     * carrying its digest alias key, so the primed index survives the
     * round trip), and a trailing contentHash over everything before
     * it, so a damaged file is rejected as a whole rather than silently
     * half-loaded (individual entries additionally carry their own
     * content hashes, which lookup/scrub keep verifying after load).
     * Images of earlier formats ("PAC1", "PAC2": other magics, other
     * hashes) are rejected — a cold rebuild, not a correctness hazard.
     */
    std::vector<uint8_t>
    serialize() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<uint8_t> out;
        out.push_back('P');
        out.push_back('A');
        out.push_back('C');
        out.push_back('3');
        putU64(out, entries_.size());
        putU64(out, layoutEntries_.size());
        tierSerialize(entries_, out);
        tierSerialize(layoutEntries_, out);
        putU64(out, contentHash(out.data(), out.size()));
        return out;
    }

    /**
     * Replace this cache's contents with a serialized image.  Returns
     * false (leaving the cache empty) on any structural damage or
     * checksum mismatch.  Statistics count the loaded entries but keep
     * zero hit/miss history.
     */
    bool
    deserialize(std::span<const uint8_t> data)
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.clear();
        layoutEntries_.clear();
        layoutAlias_.clear();
        stats_ = CacheStats{};
        layoutStats_ = CacheStats{};
        if (data.size() < 4 + 8 * 3 || data[0] != 'P' ||
            data[1] != 'A' || data[2] != 'C' || data[3] != '3')
            return false;
        uint64_t checksum = 0;
        size_t tail = data.size() - 8;
        for (int i = 0; i < 8; ++i)
            checksum |= static_cast<uint64_t>(data[tail + i]) << (8 * i);
        if (contentHash(data.data(), tail) != checksum)
            return false;
        size_t pos = 4;
        uint64_t nObjects = 0;
        uint64_t nLayouts = 0;
        if (!getU64(data, tail, pos, nObjects) ||
            !getU64(data, tail, pos, nLayouts))
            return false;
        if (!tierDeserialize(data, tail, pos, nObjects, entries_,
                             stats_) ||
            !tierDeserialize(data, tail, pos, nLayouts, layoutEntries_,
                             layoutStats_) ||
            pos != tail) {
            entries_.clear();
            layoutEntries_.clear();
            stats_ = CacheStats{};
            layoutStats_ = CacheStats{};
            return false;
        }
        for (const auto &[key, entry] : layoutEntries_)
            if (entry.digest != 0)
                layoutAlias_[entry.digest] = key;
        return true;
    }

  private:
    struct Entry
    {
        std::vector<uint8_t> bytes;
        uint64_t hash = 0;   ///< entryHash(bytes) at store time.
        uint64_t digest = 0; ///< Layout-input digest alias key (0 = none).
    };
    using EntryMap = std::unordered_map<uint64_t, Entry>;

    static uint64_t
    entryHash(const std::vector<uint8_t> &bytes)
    {
        return contentHash(bytes.data(), bytes.size());
    }

    static const std::vector<uint8_t> *
    tierLookup(EntryMap &map, CacheStats &stats, uint64_t key)
    {
        auto it = map.find(key);
        if (it == map.end()) {
            ++stats.misses;
            return nullptr;
        }
        if (entryHash(it->second.bytes) != it->second.hash) {
            eraseEntry(map, stats, it);
            ++stats.corruptions;
            ++stats.misses;
            return nullptr;
        }
        ++stats.hits;
        return &it->second.bytes;
    }

    static void
    tierPut(EntryMap &map, CacheStats &stats, uint64_t key,
            std::vector<uint8_t> bytes, uint64_t digest = 0)
    {
        uint64_t hash = entryHash(bytes);
        auto it = map.find(key);
        if (it != map.end()) {
            stats.storedBytes -= it->second.bytes.size();
            stats.storedBytes += bytes.size();
            it->second.bytes = std::move(bytes);
            it->second.hash = hash;
            it->second.digest = digest;
            return;
        }
        stats.storedBytes += bytes.size();
        ++stats.entries;
        map.emplace(key, Entry{std::move(bytes), hash, digest});
    }

    static uint64_t
    tierScrub(EntryMap &map, CacheStats &stats)
    {
        uint64_t evicted = 0;
        for (auto it = map.begin(); it != map.end();) {
            if (entryHash(it->second.bytes) != it->second.hash) {
                it = eraseEntry(map, stats, it);
                ++stats.corruptions;
                ++evicted;
            } else {
                ++it;
            }
        }
        return evicted;
    }

    template <typename Mutator>
    static bool
    tierCorrupt(EntryMap &map, CacheStats &stats, uint64_t key,
                Mutator &&mutate, bool rehash)
    {
        auto it = map.find(key);
        if (it == map.end())
            return false;
        uint64_t before = it->second.bytes.size();
        mutate(it->second.bytes);
        stats.storedBytes += it->second.bytes.size();
        stats.storedBytes -= before;
        if (rehash)
            it->second.hash = entryHash(it->second.bytes);
        return true;
    }

    static std::vector<uint64_t>
    tierKeys(const EntryMap &map)
    {
        std::vector<uint64_t> out;
        out.reserve(map.size());
        for (const auto &[key, entry] : map)
            out.push_back(key);
        std::sort(out.begin(), out.end());
        return out;
    }

    static void
    putU64(std::vector<uint8_t> &out, uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    static bool
    getU64(std::span<const uint8_t> in, size_t limit, size_t &pos,
           uint64_t &v)
    {
        if (pos + 8 > limit)
            return false;
        v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(in[pos + i]) << (8 * i);
        pos += 8;
        return true;
    }

    static void
    tierSerialize(const EntryMap &map, std::vector<uint8_t> &out)
    {
        for (uint64_t key : tierKeys(map)) {
            const Entry &entry = map.at(key);
            putU64(out, key);
            putU64(out, entry.digest);
            putU64(out, entry.hash);
            putU64(out, entry.bytes.size());
            out.insert(out.end(), entry.bytes.begin(),
                       entry.bytes.end());
        }
    }

    static bool
    tierDeserialize(std::span<const uint8_t> data, size_t limit,
                    size_t &pos, uint64_t count, EntryMap &map,
                    CacheStats &stats)
    {
        for (uint64_t i = 0; i < count; ++i) {
            uint64_t key = 0;
            uint64_t digest = 0;
            uint64_t hash = 0;
            uint64_t size = 0;
            if (!getU64(data, limit, pos, key) ||
                !getU64(data, limit, pos, digest) ||
                !getU64(data, limit, pos, hash) ||
                !getU64(data, limit, pos, size) ||
                size > limit - pos)
                return false;
            Entry entry;
            const auto bytes = data.subspan(pos, size);
            entry.bytes.assign(bytes.begin(), bytes.end());
            entry.hash = hash;
            entry.digest = digest;
            pos += size;
            stats.storedBytes += entry.bytes.size();
            ++stats.entries;
            map.emplace(key, std::move(entry));
        }
        return true;
    }

    static EntryMap::iterator
    eraseEntry(EntryMap &map, CacheStats &stats,
               EntryMap::iterator it)
    {
        stats.storedBytes -= it->second.bytes.size();
        --stats.entries;
        return map.erase(it);
    }

    mutable std::mutex mu_;
    EntryMap entries_;
    EntryMap layoutEntries_;

    /**
     * digest -> primary layout key.  Rebuilt on deserialize; entries
     * evicted later leave dangling aliases that lookupLayoutPrimed()
     * lazily prunes.  When two entries carry the same digest their
     * bytes are identical by construction (equal layout inputs produce
     * equal encoded layouts), so which one the alias resolves to never
     * changes what gets served.
     */
    std::unordered_map<uint64_t, uint64_t> layoutAlias_;

    CacheStats stats_;
    CacheStats layoutStats_;
};

} // namespace propeller::buildsys

#endif // PROPELLER_BUILD_CACHE_H
