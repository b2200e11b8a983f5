#ifndef PROPELLER_TESTS_TEST_UTIL_H
#define PROPELLER_TESTS_TEST_UTIL_H

/**
 * @file
 * Shared helpers for the test suite: tiny hand-built IR programs, a
 * small synthetic workload config that keeps tests fast, and link
 * options that force the linker's overflow quarantine.
 */

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "elf/object.h"
#include "ir/ir.h"
#include "isa/isa.h"
#include "linker/linker.h"
#include "workload/workload.h"

namespace propeller::test {

/** A small but structurally complete workload (fast to build and run). */
inline workload::WorkloadConfig
smallConfig(uint64_t seed = 47)
{
    workload::WorkloadConfig cfg;
    cfg.name = "testapp";
    cfg.seed = seed;
    cfg.modules = 12;
    cfg.functions = 80;
    cfg.hotFunctions = 26;
    cfg.coldObjectFraction = 0.6;
    cfg.minBlocks = 3;
    cfg.maxBlocks = 26;
    cfg.coldPathDensity = 0.35;
    // Enough profile staleness that layout has something to fix even at
    // this tiny scale.
    cfg.pgoStaleness = 0.4;
    cfg.handAsmFunctions = 1;
    cfg.multiModalFunctions = 2;
    cfg.evalInstructions = 600'000;
    cfg.profileInstructions = 600'000;
    cfg.sampleLbrPeriod = 2'000;
    return cfg;
}

/**
 * Build a function from a compact description: each entry is a block; the
 * caller wires terminators manually afterwards if needed.
 */
inline std::unique_ptr<ir::Function>
makeFunction(const std::string &name, size_t blocks)
{
    auto fn = std::make_unique<ir::Function>();
    fn->name = name;
    for (size_t i = 0; i < blocks; ++i) {
        auto bb = std::make_unique<ir::BasicBlock>();
        bb->id = static_cast<uint32_t>(i);
        fn->blocks.push_back(std::move(bb));
    }
    return fn;
}

/**
 * A tiny two-function program: main loops calling "work"; work has a hot
 * diamond plus a cold error path.  Used across linker/sim/propeller tests.
 */
inline ir::Program
tinyProgram()
{
    using namespace ir;
    Program program;
    program.name = "tiny";
    program.entryFunction = "main";

    auto mod = std::make_unique<Module>();
    mod->name = "tiny_mod";

    // work(): bb0 -> (bb1 hot | bb2 cold) -> bb3 ret
    auto work = makeFunction("work", 4);
    work->blocks[0]->insts = {makeWork(1, 10),
                              makeCondBr(1, 2, 240, 1000)};
    work->blocks[1]->insts = {makeWork(2, 20), makeWork(3, 30),
                              makeBr(3)};
    work->blocks[2]->insts = {makeWork(4, 40), makeWork(4, 41),
                              makeWork(4, 42), makeBr(3)};
    work->blocks[3]->insts = {makeWork(5, 50), makeRet()};

    // main(): two nested periodic request loops (~65K iterations), so
    // simulation runs are budget-bound and comparable across seeds.
    auto main_fn = makeFunction("main", 4);
    main_fn->blocks[0]->insts = {makeWork(0, 1), makeBr(1)};
    main_fn->blocks[1]->insts = {makeCall("work"),
                                 makeLoopBr(1, 2, 255, 1001)};
    main_fn->blocks[2]->insts = {makeWork(0, 2),
                                 makeLoopBr(1, 3, 255, 1002)};
    main_fn->blocks[3]->insts = {makeRet()};

    mod->functions.push_back(std::move(work));
    mod->functions.push_back(std::move(main_fn));
    program.modules.push_back(std::move(mod));
    return program;
}

/** The largest branch displacement magnitude in @p exe's text. */
inline int64_t
longestDisplacement(const linker::Executable &exe)
{
    int64_t longest = 0;
    for (const auto &sym : exe.symbols) {
        if (sym.isHandAsm)
            continue;
        for (uint64_t pc = sym.start; pc < sym.end;) {
            auto inst = isa::decode(exe.text.data() + (pc - exe.textBase),
                                    sym.end - pc);
            if (!inst)
                break;
            if (inst->isCondBranch() || inst->isUncondBranch() ||
                inst->isCall())
                longest = std::max<int64_t>(
                    longest, std::abs(static_cast<int64_t>(inst->rel)));
            pc += inst->size();
        }
    }
    return longest;
}

/** A text section with a branch to @p target other than itself; "" if none. */
inline std::string
sectionBranchingTo(const std::vector<elf::ObjectFile> &objects,
                   const std::string &target)
{
    for (const auto &obj : objects) {
        for (const auto &sym : obj.symbols) {
            if (sym.sectionIndex >= obj.sections.size() || sym.name == target)
                continue;
            for (const auto &piece : obj.sections[sym.sectionIndex].pieces)
                if (piece.site && piece.site->targetSymbol == target)
                    return sym.name;
        }
    }
    return "";
}

/**
 * @p opts narrowed so that linking @p objects quarantines a function and
 * still links.  T is the last section in input order that another
 * section S branches to.  Listing S first stretches that branch across
 * nearly the whole image; at input order's longest displacement S's
 * function is quarantined back to input order, which links.  The
 * symbolOrder is empty if no section branches to another.
 */
inline linker::Options
quarantineOptions(const std::vector<elf::ObjectFile> &objects,
                  const linker::Options &opts)
{
    linker::Executable in_order = linker::link(objects, opts);
    std::string first;
    for (size_t k = in_order.symbols.size(); k-- > 0 && first.empty();)
        first = sectionBranchingTo(objects, in_order.symbols[k].name);
    linker::Options narrow = opts;
    narrow.symbolOrder.clear();
    if (!first.empty())
        narrow.symbolOrder.push_back(first);
    narrow.maxBranchDisplacement = longestDisplacement(in_order);
    return narrow;
}

} // namespace propeller::test

#endif // PROPELLER_TESTS_TEST_UTIL_H
