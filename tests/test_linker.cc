/**
 * @file
 * Unit tests for the linker: symbol ordering, relocation resolution, the
 * relaxation pass (fall-through deletion and branch shrinking), metadata
 * handling and integrity-check generation.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "build/workflow.h"
#include "codegen/codegen.h"
#include "isa/isa.h"
#include "linker/linker.h"
#include "test_util.h"
#include "workload/workload.h"

namespace propeller::linker {
namespace {

std::vector<elf::ObjectFile>
compiled(const ir::Program &program, codegen::Options copts = {})
{
    return codegen::compileProgram(program, copts);
}

Options
baseOptions()
{
    Options opts;
    opts.entrySymbol = "main";
    return opts;
}

TEST(Linker, ResolvesSymbolsAndEntry)
{
    ir::Program program = test::tinyProgram();
    Executable exe = link(compiled(program), baseOptions());

    const FuncRange *main_range = exe.findSymbol("main");
    ASSERT_NE(main_range, nullptr);
    EXPECT_EQ(exe.entryAddress, main_range->start);
    EXPECT_TRUE(main_range->isPrimary);
    ASSERT_NE(exe.findSymbol("work"), nullptr);
    EXPECT_EQ(exe.findSymbol("ghost"), nullptr);
    EXPECT_GE(exe.textBase, 0x400000u);
    EXPECT_FALSE(exe.text.empty());
}

TEST(Linker, SymbolOrderControlsLayout)
{
    ir::Program program = test::tinyProgram();
    Options opts = baseOptions();
    opts.symbolOrder = {"main", "work"};
    Executable a = link(compiled(program), opts);
    opts.symbolOrder = {"work", "main"};
    Executable b = link(compiled(program), opts);

    EXPECT_LT(a.findSymbol("main")->start, a.findSymbol("work")->start);
    EXPECT_LT(b.findSymbol("work")->start, b.findSymbol("main")->start);
}

TEST(Linker, UnknownOrderEntriesIgnored)
{
    ir::Program program = test::tinyProgram();
    Options opts = baseOptions();
    opts.symbolOrder = {"nonexistent", "work"};
    Executable exe = link(compiled(program), opts);
    EXPECT_LT(exe.findSymbol("work")->start, exe.findSymbol("main")->start);
}

/** Decode every instruction of every non-hand-asm symbol range. */
void
verifyDecodable(const Executable &exe)
{
    for (const auto &sym : exe.symbols) {
        if (sym.isHandAsm)
            continue;
        uint64_t pc = sym.start;
        while (pc < sym.end) {
            auto inst = isa::decode(exe.text.data() + (pc - exe.textBase),
                                    sym.end - pc);
            ASSERT_TRUE(inst.has_value())
                << "undecodable byte at " << std::hex << pc << " in "
                << sym.name;
            // Branch targets must land inside the image.
            if (inst->isCondBranch() || inst->isUncondBranch() ||
                inst->isCall()) {
                uint64_t target =
                    pc + inst->size() + static_cast<int64_t>(inst->rel);
                EXPECT_TRUE(exe.containsText(target))
                    << "wild branch at " << std::hex << pc;
            }
            pc += inst->size();
        }
    }
}

TEST(Linker, AllInstructionsDecodableAndTargetsInImage)
{
    ir::Program program = test::tinyProgram();
    Executable exe = link(compiled(program), baseOptions());
    verifyDecodable(exe);
}

TEST(LinkerRelax, ShrinksShortRangeBranches)
{
    ir::Program program = test::tinyProgram();
    LinkStats stats;
    Options opts = baseOptions();
    link(compiled(program), opts, &stats);
    EXPECT_GT(stats.branchesShrunk, 0u)
        << "tiny program branches all fit in rel8";

    opts.relax = false;
    link(compiled(program), opts, &stats);
    EXPECT_EQ(stats.branchesShrunk, 0u);
    EXPECT_EQ(stats.fallThroughsDeleted, 0u);
}

TEST(LinkerRelax, DeletesFallThroughJumpsInAllBlockSections)
{
    // One section per block keeps original order at link time, so every
    // explicit fall-through jump whose target follows it is deletable.
    ir::Program program = test::tinyProgram();
    codegen::Options copts;
    copts.bbSections = codegen::BbSectionsMode::All;
    LinkStats stats;
    Executable exe = link(compiled(program, copts), baseOptions(), &stats);
    EXPECT_GT(stats.fallThroughsDeleted, 0u);
    verifyDecodable(exe);
}

TEST(LinkerRelax, RelaxedBinaryIsSmaller)
{
    ir::Program program = test::tinyProgram();
    codegen::Options copts;
    copts.bbSections = codegen::BbSectionsMode::All;
    Options opts = baseOptions();
    Executable relaxed = link(compiled(program, copts), opts);
    opts.relax = false;
    Executable fat = link(compiled(program, copts), opts);
    EXPECT_LT(relaxed.text.size(), fat.text.size());
}

TEST(LinkerRelax, ConvergesWithinIterationCap)
{
    ir::Program program = test::tinyProgram();
    LinkStats stats;
    link(compiled(program), baseOptions(), &stats);
    EXPECT_LE(stats.relaxIterations, 8u);
    EXPECT_GE(stats.relaxIterations, 2u);
}

TEST(Linker, BbAddrMapHasAbsoluteContiguousBlocks)
{
    ir::Program program = test::tinyProgram();
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    Executable exe = link(compiled(program, copts), baseOptions());

    ASSERT_EQ(exe.bbAddrMap.size(), 2u);
    for (const auto &map : exe.bbAddrMap) {
        const FuncRange *range = exe.findSymbol(map.function);
        ASSERT_NE(range, nullptr);
        for (const auto &block : map.blocks) {
            EXPECT_GE(block.address, range->start);
            EXPECT_LE(block.address + block.size, range->end);
        }
    }
}

TEST(Linker, AddrMapsDroppedWithoutMetadataSection)
{
    ir::Program program = test::tinyProgram();
    Executable exe = link(compiled(program), baseOptions());
    EXPECT_TRUE(exe.bbAddrMap.empty())
        << "no .bb_addr_map sections -> no executable map";
}

TEST(Linker, DropAddrMapsOfColdObjects)
{
    ir::Program program = test::tinyProgram();
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    auto objects = compiled(program, copts);

    std::set<std::string> cold = {"tiny_mod.o"};
    Options opts = baseOptions();
    opts.dropAddrMapsOf = &cold;
    Executable exe = link(objects, opts);
    EXPECT_TRUE(exe.bbAddrMap.empty());
    EXPECT_EQ(exe.sizes.bbAddrMap, 0u);

    Options keep = baseOptions();
    Executable exe2 = link(objects, keep);
    EXPECT_GT(exe2.sizes.bbAddrMap, 0u);
    EXPECT_FALSE(exe2.bbAddrMap.empty());
}

TEST(Linker, EmitRelocsCountsRelaSizes)
{
    ir::Program program = test::tinyProgram();
    auto objects = compiled(program);
    Options opts = baseOptions();
    Executable plain = link(objects, opts);
    EXPECT_EQ(plain.sizes.relocs, 0u);

    opts.emitRelocs = true;
    Executable bm = link(objects, opts);
    EXPECT_GT(bm.sizes.relocs, 0u);
    EXPECT_EQ(bm.sizes.relocs % elf::kRelaEntrySize, 0u);
    EXPECT_EQ(bm.text, plain.text) << "relocs do not change the image";
}

TEST(Linker, HugePagesAlignBase)
{
    ir::Program program = test::tinyProgram();
    Options opts = baseOptions();
    opts.hugePagesText = true;
    Executable exe = link(compiled(program), opts);
    EXPECT_TRUE(exe.hugePagesText);
    EXPECT_EQ(exe.textBase % (2ull * 1024 * 1024), 0u);
}

TEST(Linker, IntegrityChecksHashPrimaryRanges)
{
    ir::Program program = test::tinyProgram();
    program.modules[0]->functions[0]->hasIntegrityCheck = true;
    Executable exe = link(compiled(program), baseOptions());
    ASSERT_EQ(exe.integrityChecks.size(), 1u);
    EXPECT_EQ(exe.integrityChecks[0].function, "work");
    EXPECT_NE(exe.integrityChecks[0].expectedHash, 0u);

    // Different layouts produce different hashes (same function content).
    Options opts = baseOptions();
    opts.symbolOrder = {"main", "work"};
    Executable other = link(compiled(program), opts);
    // Hash may or may not change depending on displacement encodings, but
    // the mechanism must recompute; at minimum it is self-consistent.
    ASSERT_EQ(other.integrityChecks.size(), 1u);
}

TEST(Linker, MemoryModelScalesWithInputs)
{
    ir::Program program = test::tinyProgram();
    LinkStats stats;
    link(compiled(program), baseOptions(), &stats);
    // Runtime floor plus a multiple of the inputs.
    constexpr uint64_t kFloor = 192 * 1024;
    EXPECT_GT(stats.peakMemory, kFloor + stats.inputBytes);
    EXPECT_LT(stats.peakMemory, kFloor + stats.inputBytes * 4);
}

TEST(Linker, ExternalMeterPulsed)
{
    ir::Program program = test::tinyProgram();
    MemoryMeter meter;
    Options opts = baseOptions();
    opts.meter = &meter;
    LinkStats stats;
    link(compiled(program), opts, &stats);
    EXPECT_EQ(meter.peak(), stats.peakMemory);
    EXPECT_EQ(meter.live(), 0u);
}

TEST(Linker, SizesBreakdownConsistent)
{
    ir::Program program = test::tinyProgram();
    program.modules[0]->rodataBytes = 128;
    codegen::Options copts;
    copts.emitAddrMapSection = true;
    Executable exe = link(compiled(program, copts), baseOptions());
    EXPECT_EQ(exe.sizes.text, exe.text.size());
    EXPECT_GT(exe.sizes.ehFrame, 0u);
    EXPECT_GT(exe.sizes.bbAddrMap, 0u);
    EXPECT_GE(exe.sizes.other, 128u);
    EXPECT_EQ(exe.fileSize(), 4096 + exe.sizes.total());
}

TEST(Linker, DebugRelocsOnlyWithEmitRelocs)
{
    ir::Program program = test::tinyProgram();
    codegen::Options copts;
    copts.emitDebugInfo = true;
    auto objects = compiled(program, copts);

    Options opts = baseOptions();
    Executable stripped = link(objects, opts);
    EXPECT_GT(stripped.sizes.debug, 0u);
    EXPECT_EQ(stripped.sizes.relocs, 0u);

    opts.emitRelocs = true;
    Executable bm = link(objects, opts);
    EXPECT_GT(bm.sizes.relocs, 0u);
    EXPECT_GT(bm.sizes.relocs,
              link(compiled(program), opts).sizes.relocs)
        << "debug relocations inflate --emit-relocs binaries";
}

TEST(Linker, DeterministicOutput)
{
    ir::Program program = test::tinyProgram();
    Executable a = link(compiled(program), baseOptions());
    Executable b = link(compiled(program), baseOptions());
    EXPECT_EQ(a.text, b.text);
    EXPECT_EQ(a.entryAddress, b.entryAddress);
}

/**
 * Link @p objects with the maps kept and stripped; the strip of the kept
 * link must equal the stripped link in every field, stats included.
 * Returns the kept link's stats (for the callers' coverage checks).
 */
LinkStats
expectStripEqualsStrippedLink(const std::vector<elf::ObjectFile> &objects,
                              Options opts, const std::string &what)
{
    opts.stripAddrMaps = false;
    LinkStats kept_stats;
    auto kept = linkChecked(objects, opts, &kept_stats);
    opts.stripAddrMaps = true;
    LinkStats stripped_stats;
    auto stripped = linkChecked(objects, opts, &stripped_stats);
    EXPECT_TRUE(kept.ok()) << what << ": " << kept.status().toString();
    EXPECT_TRUE(stripped.ok()) << what;
    if (!kept.ok() || !stripped.ok())
        return kept_stats;

    LinkStats stats = kept_stats;
    Executable strip = stripAddrMaps(*kept, &stats);
    EXPECT_TRUE(strip.bbAddrMap.empty()) << what;
    EXPECT_EQ(strip.sizes.bbAddrMap, 0u) << what;
    // Field by field first, so a failure names the field.
    EXPECT_EQ(strip.text, stripped->text) << what;
    EXPECT_EQ(strip.symbols, stripped->symbols) << what;
    EXPECT_EQ(strip.frames, stripped->frames) << what;
    EXPECT_EQ(strip.integrityChecks, stripped->integrityChecks) << what;
    EXPECT_EQ(strip.sizes, stripped->sizes) << what;
    EXPECT_EQ(strip.identityHash, stripped->identityHash) << what;
    EXPECT_TRUE(strip == *stripped) << what;
    EXPECT_EQ(stats.quarantined, stripped_stats.quarantined) << what;
    EXPECT_TRUE(stats == stripped_stats) << what;
    return kept_stats;
}

TEST(Linker, StrippedLinkIsKeptLinkMinusMaps)
{
    for (const char *app : {"clang", "bigtable", "mysql"}) {
        workload::WorkloadConfig cfg = workload::configByName(app);
        buildsys::Workflow wf(cfg);
        const ir::Program &program = wf.program();

        codegen::Options phase2;
        phase2.emitAddrMapSection = true;
        codegen::ClusterMap clusters = wf.wpa().ccProf.clusters;
        codegen::sanitizeClusterMap(program, clusters);
        codegen::Options phase4 = phase2;
        phase4.bbSections = codegen::BbSectionsMode::Clusters;
        phase4.clusters = &clusters;

        for (const codegen::Options *copts : {&phase2, &phase4}) {
            const std::string tag = std::string(app) +
                                    (copts == &phase2 ? " phase2" : " phase4");
            std::vector<elf::ObjectFile> objects =
                codegen::compileProgram(program, *copts);
            Options opts;
            opts.entrySymbol = program.entryFunction;
            opts.outputName = cfg.name + ".po";

            LinkStats st = expectStripEqualsStrippedLink(objects, opts,
                                                         tag + " in order");
            EXPECT_EQ(st.addrMapsRejected, 0u) << tag;

            Options ordered = opts;
            ordered.symbolOrder = wf.wpa().ldProf.symbolOrder;
            expectStripEqualsStrippedLink(objects, ordered,
                                          tag + " ordered");

            std::set<std::string> cold;
            for (size_t i = 0; i < objects.size(); i += 2)
                cold.insert(objects[i].name);
            Options dropping = ordered;
            dropping.dropAddrMapsOf = &cold;
            expectStripEqualsStrippedLink(objects, dropping,
                                          tag + " dropAddrMapsOf");

            // One object's maps fail their checksum: the kept link
            // rejects them, the stripped link never decodes them.
            std::vector<elf::ObjectFile> flipped = objects;
            int map = flipped[1].findSection(".bb_addr_map");
            ASSERT_GE(map, 0) << tag;
            flipped[1].sections[map].bytes[4] ^= 0x10;
            st = expectStripEqualsStrippedLink(flipped, ordered,
                                               tag + " rejected maps");
            EXPECT_EQ(st.addrMapsRejected, 1u) << tag;

            Options narrow = test::quarantineOptions(objects, opts);
            ASSERT_FALSE(narrow.symbolOrder.empty()) << tag;
            st = expectStripEqualsStrippedLink(objects, narrow,
                                               tag + " quarantine");
            EXPECT_GT(st.quarantinedFunctions, 0u) << tag;
        }
    }
}

} // namespace
} // namespace propeller::linker
