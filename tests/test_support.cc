/**
 * @file
 * Unit tests for the support library: memory metering, RNG, hashing,
 * ULEB128, unit formatting, table rendering, JSON string escaping.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "json_reader.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/leb128.h"
#include "support/memory_meter.h"
#include "support/rng.h"
#include "support/table.h"
#include "support/units.h"

namespace propeller {
namespace {

TEST(MemoryMeter, TracksLiveAndPeak)
{
    MemoryMeter meter;
    meter.charge(100);
    meter.charge(50);
    EXPECT_EQ(meter.live(), 150u);
    EXPECT_EQ(meter.peak(), 150u);
    meter.release(120);
    EXPECT_EQ(meter.live(), 30u);
    EXPECT_EQ(meter.peak(), 150u);
    meter.charge(10);
    EXPECT_EQ(meter.peak(), 150u) << "peak must not move below high water";
}

TEST(MemoryMeter, ResetClearsEverything)
{
    MemoryMeter meter;
    meter.charge(64);
    meter.reset();
    EXPECT_EQ(meter.live(), 0u);
    EXPECT_EQ(meter.peak(), 0u);
}

TEST(MemoryMeter, ResetPeakKeepsLive)
{
    MemoryMeter meter;
    meter.charge(80);
    meter.release(40);
    meter.resetPeak();
    EXPECT_EQ(meter.live(), 40u);
    EXPECT_EQ(meter.peak(), 40u);
}

TEST(MemoryMeter, ScopedChargeReleasesOnDestruction)
{
    MemoryMeter meter;
    {
        ScopedCharge scope(meter, 1000);
        EXPECT_EQ(meter.live(), 1000u);
        scope.add(24);
        EXPECT_EQ(meter.live(), 1024u);
    }
    EXPECT_EQ(meter.live(), 0u);
    EXPECT_EQ(meter.peak(), 1024u);
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 5000; ++i) {
        uint64_t v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SkewedFavorsSmallValues)
{
    Rng rng(13);
    uint64_t below_mid = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        uint64_t v = rng.skewed(0, 100);
        EXPECT_LE(v, 100u);
        below_mid += (v < 50);
    }
    EXPECT_GT(below_mid, static_cast<uint64_t>(n) * 6 / 10);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(Hash, Fnv1aMatchesKnownVector)
{
    // FNV-1a("a") = 0xaf63dc4c8601ec8c.
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(fnv1a(""), kFnvOffset);
}

TEST(Hash, SensitiveToEveryByte)
{
    EXPECT_NE(fnv1a("hello"), fnv1a("hellp"));
    EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
}

TEST(Hash, CombineOrderMatters)
{
    uint64_t h = kFnvOffset;
    EXPECT_NE(hashCombine(hashCombine(h, 1), 2),
              hashCombine(hashCombine(h, 2), 1));
}

TEST(ContentHash, MatchesKnownValues)
{
    // Pinned: the cache image trailer, the journal footer and every
    // entry hash depend on these exact values.
    EXPECT_EQ(contentHash("", 0), 0x3fdf455f9dcf1e62ull);
    EXPECT_EQ(contentHash("a", 1), 0x5148ea31508f0e49ull);
    EXPECT_EQ(contentHash("abc", 3), 0x82d7e88cce6a1c5aull);
    EXPECT_EQ(contentHash("12345678", 8), 0xf0c281624ba6a3c8ull);
    const std::string fox = "The quick brown fox jumps over the lazy dog";
    EXPECT_EQ(contentHash(fox.data(), fox.size()), 0x497fb2362743de6bull);
    uint8_t ramp[64];
    for (int i = 0; i < 64; ++i)
        ramp[i] = static_cast<uint8_t>(i);
    EXPECT_EQ(contentHash(ramp, sizeof ramp), 0xf7c67301db6713f0ull);
}

TEST(ContentHash, ZeroBuffersOfEveryLengthDiffer)
{
    const std::vector<uint8_t> zeros(80, 0);
    std::set<uint64_t> seen;
    for (size_t len = 0; len <= zeros.size(); ++len)
        EXPECT_TRUE(seen.insert(contentHash(zeros.data(), len)).second)
            << "len " << len;
}

TEST(ContentHash, UnalignedStartHashesLikeAlignedCopy)
{
    std::vector<uint8_t> buf(300 + 8);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<uint8_t>(i * 131 + 7);
    for (size_t offset = 0; offset < 8; ++offset) {
        for (size_t len : {0, 1, 7, 8, 9, 31, 32, 33, 64, 100, 300}) {
            // uint64_t storage: the copy starts on an 8-byte boundary.
            std::vector<uint64_t> aligned((len + 7) / 8 + 1);
            std::memcpy(aligned.data(), buf.data() + offset, len);
            EXPECT_EQ(contentHash(buf.data() + offset, len),
                      contentHash(aligned.data(), len))
                << "offset " << offset << " len " << len;
        }
    }
}

TEST(ContentHash, EverySingleBitFlipChangesValue)
{
    std::vector<uint8_t> buf(256);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<uint8_t>(i * 37 + 11);
    const uint64_t base = contentHash(buf.data(), buf.size());
    for (size_t bit = 0; bit < buf.size() * 8; ++bit) {
        buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
        EXPECT_NE(contentHash(buf.data(), buf.size()), base)
            << "bit " << bit;
        buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
}

TEST(ContentHash, StreamingEqualsOneShotAtEverySplit)
{
    std::vector<uint8_t> buf(100);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<uint8_t>(i * 29 + 3);
    const uint64_t whole = contentHash(buf.data(), buf.size());
    for (size_t split = 0; split <= buf.size(); ++split) {
        ContentHasher h;
        h.update(buf.data(), split);
        h.update(buf.data() + split, buf.size() - split);
        EXPECT_EQ(h.finish(), whole) << "split " << split;
    }

    // word() absorbs 8 little-endian bytes, on or off a word boundary;
    // string() is its length word, its bytes and zero padding.
    for (size_t lead = 0; lead < 8; ++lead) {
        ContentHasher words;
        words.update(buf.data(), lead);
        words.word(0x0102030405060708ull);
        words.string("abc");
        words.word(9);
        std::vector<uint8_t> bytes(buf.begin(), buf.begin() + lead);
        for (int i = 0; i < 8; ++i)
            bytes.push_back(static_cast<uint8_t>(8 - i));
        for (int i = 0; i < 8; ++i)
            bytes.push_back(i == 0 ? 3 : 0);
        bytes.insert(bytes.end(), {'a', 'b', 'c'});
        bytes.resize((bytes.size() + 7) / 8 * 8, 0);
        for (int i = 0; i < 8; ++i)
            bytes.push_back(i == 0 ? 9 : 0);
        EXPECT_EQ(words.finish(), contentHash(bytes.data(), bytes.size()))
            << "lead " << lead;
    }
}

TEST(Hash, DigestIsFixedWidthHex)
{
    std::string d = hashDigest(0xabcull);
    EXPECT_EQ(d.size(), 16u);
    EXPECT_EQ(d, "0000000000000abc");
}

class Leb128Roundtrip : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(Leb128Roundtrip, EncodesAndDecodes)
{
    uint64_t value = GetParam();
    std::vector<uint8_t> buf;
    encodeUleb128(value, buf);
    EXPECT_EQ(buf.size(), uleb128Size(value));
    size_t pos = 0;
    auto decoded = decodeUleb128(buf, pos);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, value);
    EXPECT_EQ(pos, buf.size());
}

INSTANTIATE_TEST_SUITE_P(Values, Leb128Roundtrip,
                         ::testing::Values(0ull, 1ull, 127ull, 128ull,
                                           300ull, 16383ull, 16384ull,
                                           0xffffffffull,
                                           0x123456789abcdefull,
                                           UINT64_MAX));

TEST(Leb128, TruncatedInputFails)
{
    std::vector<uint8_t> buf;
    encodeUleb128(UINT64_MAX, buf);
    buf.pop_back();
    size_t pos = 0;
    EXPECT_FALSE(decodeUleb128(buf, pos).has_value());
}

TEST(Leb128, EmptyInputFails)
{
    std::vector<uint8_t> buf;
    size_t pos = 0;
    EXPECT_FALSE(decodeUleb128(buf, pos).has_value());
}

TEST(Json, EscapedControlBytesRoundTripThroughStrictParse)
{
    std::string raw;
    for (int c = 0x00; c < 0x20; ++c)
        raw += static_cast<char>(c);
    raw += "\"\\/ plain text";

    const std::string escaped = support::jsonEscape(raw);
    for (char c : escaped)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << escaped;
    EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
    EXPECT_NE(escaped.find("\\n"), std::string::npos);

    const std::string doc = "{\"s\": \"" + escaped + "\"}";
    test::JsonReader reader(doc);
    ASSERT_TRUE(reader.parse()) << doc;
    EXPECT_EQ(reader.strings["s"], raw);
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(72ull * 1024 * 1024), "72 MB");
    EXPECT_EQ(formatBytes(34ull * 1024), "34 KB");
    EXPECT_EQ(formatBytes(5ull * 1024 * 1024 * 1024 / 2), "2.50 GB");
}

TEST(Units, FormatCount)
{
    EXPECT_EQ(formatCount(80), "80");
    EXPECT_EQ(formatCount(160'000), "160 K");
    EXPECT_EQ(formatCount(2'100'000), "2.10 M");
}

TEST(Units, FormatPercentDelta)
{
    EXPECT_EQ(formatPercentDelta(0.073), "+7.3%");
    EXPECT_EQ(formatPercentDelta(-0.02), "-2.0%");
}

TEST(Units, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.67), "67%");
    EXPECT_EQ(formatPercent(0.051, 1), "5.1%");
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"Name", "Value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::string out = t.render();
    EXPECT_NE(out.find("| Name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    // Numeric cells right-align: "22" ends where "1" ends.
    size_t p1 = out.find(" 1 |");
    size_t p2 = out.find("22 |");
    EXPECT_NE(p1, std::string::npos);
    EXPECT_NE(p2, std::string::npos);
}

TEST(Table, SeparatorRows)
{
    Table t({"A"});
    t.addRow({"x"});
    t.addSeparator();
    t.addRow({"y"});
    std::string out = t.render();
    // Header sep + 2 outer seps + 1 inner = 4 separator lines.
    int seps = 0;
    for (size_t pos = 0; (pos = out.find("+--", pos)) != std::string::npos;
         ++pos)
        ++seps;
    EXPECT_EQ(seps, 4);
}

TEST(BarChart, ScalesToMax)
{
    BarChart chart(10);
    chart.addBar("big", 100.0, "100");
    chart.addBar("half", 50.0, "50");
    std::string out = chart.render();
    EXPECT_NE(out.find("##########"), std::string::npos);
    EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(HeatMap, RendersRowsTopDown)
{
    std::vector<std::vector<uint64_t>> cells = {{0, 0}, {9, 9}};
    std::string out = renderHeatMap(cells, "addr", "time");
    // Higher addresses (row 1) print first.
    size_t dark = out.find('@');
    size_t blank = out.find("|  |");
    EXPECT_NE(dark, std::string::npos);
    EXPECT_NE(blank, std::string::npos);
    EXPECT_LT(dark, blank);
}

} // namespace
} // namespace propeller
