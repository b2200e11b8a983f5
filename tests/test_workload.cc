/**
 * @file
 * Unit tests for the workload generator: structural validity of every
 * named configuration (parameterized), characteristic targets and
 * determinism.
 */

#include <gtest/gtest.h>

#include <map>

#include "ir/verifier.h"
#include "workload/workload.h"

namespace propeller::workload {
namespace {

class NamedConfig : public ::testing::TestWithParam<const char *>
{
  protected:
    const WorkloadConfig &config() { return configByName(GetParam()); }
};

TEST_P(NamedConfig, GeneratesValidProgram)
{
    ir::Program program = generate(config());
    std::vector<support::Status> errors = ir::verifyAll(program);
    EXPECT_TRUE(errors.empty())
        << errors.size() << " errors, first: "
        << (errors.empty() ? "ok" : errors[0].toString());
}

TEST_P(NamedConfig, CharacteristicsNearTargets)
{
    const WorkloadConfig &cfg = config();
    ir::Program program = generate(cfg);
    // +1 for the entry function.
    EXPECT_EQ(program.functionCount(), cfg.functions + 1u);
    EXPECT_LE(program.modules.size(), cfg.modules);
    EXPECT_GE(program.modules.size(), cfg.modules * 9 / 10);

    // Block count within a factor band of min..max expectation.
    double mean_blocks =
        cfg.minBlocks + (cfg.maxBlocks - cfg.minBlocks) / 3.0;
    double expected = mean_blocks * cfg.functions;
    EXPECT_GT(program.blockCount(), expected * 0.5);
    EXPECT_LT(program.blockCount(), expected * 1.6);

    // Structural features present as configured.
    uint32_t hand_asm = 0;
    uint32_t checked = 0;
    for (const auto &mod : program.modules) {
        for (const auto &fn : mod->functions) {
            hand_asm += fn->isHandAsm;
            checked += fn->hasIntegrityCheck;
        }
    }
    EXPECT_EQ(hand_asm, cfg.handAsmFunctions);
    EXPECT_EQ(checked, cfg.integrityCheckedFunctions);
}

INSTANTIATE_TEST_SUITE_P(Apps, NamedConfig,
                         ::testing::Values("clang", "mysql", "spanner",
                                           "search", "superroot",
                                           "bigtable"));
INSTANTIATE_TEST_SUITE_P(Spec, NamedConfig,
                         ::testing::Values("500.perlbench", "502.gcc",
                                           "505.mcf", "523.xalancbmk",
                                           "525.x264", "531.deepsjeng",
                                           "541.leela", "557.xz"));

TEST(Workload, Deterministic)
{
    WorkloadConfig cfg = configByName("505.mcf");
    ir::Program a = generate(cfg);
    ir::Program b = generate(cfg);
    ASSERT_EQ(a.modules.size(), b.modules.size());
    EXPECT_EQ(a.instCount(), b.instCount());
    EXPECT_EQ(a.blockCount(), b.blockCount());
    for (size_t m = 0; m < a.modules.size(); ++m) {
        ASSERT_EQ(a.modules[m]->functions.size(),
                  b.modules[m]->functions.size());
        EXPECT_EQ(a.modules[m]->name, b.modules[m]->name);
    }
}

TEST(Workload, SeedChangesProgram)
{
    WorkloadConfig cfg = configByName("505.mcf");
    ir::Program a = generate(cfg);
    cfg.seed += 1;
    ir::Program b = generate(cfg);
    EXPECT_NE(a.instCount(), b.instCount());
}

TEST(Workload, EntryIsMain)
{
    ir::Program program = generate(configByName("505.mcf"));
    EXPECT_EQ(program.entryFunction, "main");
    ASSERT_NE(program.findFunction("main"), nullptr);
}

TEST(Workload, ColdBlocksSunkToFunctionEnd)
{
    // PGO-quality baseline: no never-executed branch target should sit
    // between two hot blocks in the original order.  Spot check: every
    // CondBr with bias 0 targets a block at a higher position than its
    // own block.
    ir::Program program = generate(configByName("541.leela"));
    int checked = 0;
    for (const auto &mod : program.modules) {
        for (const auto &fn : mod->functions) {
            std::map<uint32_t, size_t> pos;
            for (size_t i = 0; i < fn->blocks.size(); ++i)
                pos[fn->blocks[i]->id] = i;
            for (size_t i = 0; i < fn->blocks.size(); ++i) {
                const ir::Inst &term = fn->blocks[i]->terminator();
                if (term.kind == ir::InstKind::CondBr && term.bias == 0) {
                    EXPECT_GT(pos[term.trueTarget], i)
                        << fn->name << " cold target before branch";
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 5) << "workload must contain never-taken paths";
}

TEST(Workload, ConfigTablesComplete)
{
    EXPECT_EQ(appConfigs().size(), 6u);
    EXPECT_EQ(specConfigs().size(), 8u);
    for (const auto &cfg : appConfigs()) {
        EXPECT_FALSE(cfg.paperText.empty());
        EXPECT_GT(cfg.hotFunctions, 0u);
        EXPECT_GT(cfg.functions, cfg.hotFunctions);
    }
    EXPECT_TRUE(configByName("search").hugePages);
    EXPECT_TRUE(configByName("spanner").distributedBuild);
    EXPECT_FALSE(configByName("clang").distributedBuild);
    EXPECT_GT(configByName("superroot").integrityCheckedFunctions, 0u);
    EXPECT_EQ(configByName("clang").integrityCheckedFunctions, 0u);
}

TEST(Workload, FindConfigReturnsTypedErrorForUnknownName)
{
    support::StatusOr<WorkloadConfig> found = findConfig("mysql");
    ASSERT_TRUE(found.ok());
    EXPECT_EQ(found.value().name, "mysql");

    support::StatusOr<WorkloadConfig> missing = findConfig("fleetapp");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), support::ErrorCode::kUnresolved);
    const std::string &message = missing.status().message();
    EXPECT_NE(message.find("'fleetapp'"), std::string::npos) << message;
    // The error lists every workload a caller could have meant.
    for (const auto *table : {&appConfigs(), &specConfigs()})
        for (const auto &cfg : *table)
            EXPECT_NE(message.find(cfg.name), std::string::npos)
                << cfg.name;
}

TEST(Workload, OptionsDeriveFromConfig)
{
    const WorkloadConfig &cfg = configByName("search");
    sim::MachineOptions eval = evalOptions(cfg);
    sim::MachineOptions prof = profileOptions(cfg);
    EXPECT_EQ(eval.maxInstructions, cfg.evalInstructions);
    EXPECT_FALSE(eval.collectLbr);
    EXPECT_TRUE(prof.collectLbr);
    EXPECT_NE(eval.seed, prof.seed)
        << "profiling uses a different input stream than evaluation";
}

} // namespace
} // namespace propeller::workload
