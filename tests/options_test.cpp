/**
 * @file
 * Tests for the declarative option table (support/options.hpp) and
 * the shared option groups built on it (core/cli_options.hpp).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/cli_options.hpp"
#include "support/options.hpp"

namespace {

using slambench::support::Options;
using slambench::support::OptionType;

/** A small table exercising every option type. */
Options
sampleOptions()
{
    Options options("sample", "a sample binary");
    options.section("sample").add({
        {"--frames", OptionType::Integer, "40", "1..", "frames"},
        {"--csr", OptionType::Integer, "1", "1|2|4|8", "ratio"},
        {"--offset", OptionType::Integer, "0", "-10..10", "offset"},
        {"--rate", OptionType::Real, "0.01", "0..1", "rate"},
        {"--scene", OptionType::String, "living-room",
         "living-room|office", "scene"},
        {"--trace", OptionType::String, "", "", "trace file"},
        {"--pyramid", OptionType::List, "10,5,4", "0..100", "levels"},
        {"--quiet", OptionType::Flag, "", "", "quiet"},
    });
    return options;
}

struct RejectCase
{
    std::vector<std::string> args;
    std::string error;
};

class OptionsReject : public ::testing::TestWithParam<RejectCase>
{
};

TEST_P(OptionsReject, NamesTheProblem)
{
    Options options = sampleOptions();
    const std::string error = options.parse(GetParam().args);
    EXPECT_NE(error.find(GetParam().error), std::string::npos)
        << "got: '" << error << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Table, OptionsReject,
    ::testing::Values(
        RejectCase{{"--bogus-flag", "1"},
                   "unknown option '--bogus-flag'"},
        RejectCase{{"--frames"}, "--frames: missing value"},
        RejectCase{{"--trace", "--quiet"}, "--trace: missing value"},
        RejectCase{{"--frames", "abc"},
                   "--frames: 'abc' is not an integer"},
        RejectCase{{"--frames", "4.5"}, "is not an integer"},
        RejectCase{{"--frames", "99999999999999999999"},
                   "is not an integer"},
        RejectCase{{"--frames", "-5"},
                   "--frames: -5 is out of range (want >= 1)"},
        RejectCase{{"--offset", "11"}, "out of range (want -10..10)"},
        RejectCase{{"--csr", "3"}, "--csr: '3' is not one of 1|2|4|8"},
        RejectCase{{"--scene", "attic"},
                   "'attic' is not one of living-room|office"},
        RejectCase{{"--rate", "nan"}, "--rate: 'nan' is not a number"},
        RejectCase{{"--rate", "1.5"}, "out of range (want 0..1)"},
        RejectCase{{"--pyramid", "4,x,2"},
                   "--pyramid: '4,x,2': 'x' is not an integer"},
        RejectCase{{"--pyramid", "4,,2"}, "'' is not an integer"},
        RejectCase{{"--pyramid", "4,300"}, "300 is out of range"},
        RejectCase{{"--frames", "5", "--frames", "6"},
                   "--frames: given twice"},
        RejectCase{{"stray"}, "unexpected argument 'stray'"},
        RejectCase{{"--quiet", "1"}, "unexpected argument '1'"},
        RejectCase{{"--benchmark_filter=x"},
                   "unknown option '--benchmark_filter=x'"}));

TEST(Options, DefaultsApplyWhenNotGiven)
{
    Options options = sampleOptions();
    ASSERT_EQ(options.parse({}), "");
    EXPECT_FALSE(options.given("--frames"));
    EXPECT_EQ(options.integer("--frames"), 40);
    EXPECT_DOUBLE_EQ(options.real("--rate"), 0.01);
    EXPECT_EQ(options.string("--scene"), "living-room");
    EXPECT_EQ(options.string("--trace"), "");
    EXPECT_EQ(options.list("--pyramid"), (std::vector<long>{10, 5, 4}));
    EXPECT_FALSE(options.flag("--quiet"));
    EXPECT_FALSE(options.helpRequested());
}

TEST(Options, ParsesGivenValues)
{
    Options options = sampleOptions();
    ASSERT_EQ(options.parse({"--frames", "7", "--offset", "-3",
                             "--rate", "0", "--scene", "office",
                             "--pyramid", "4,3,2", "--quiet", "--csr",
                             "8", "--trace", "t.json"}),
              "");
    EXPECT_TRUE(options.given("--frames"));
    EXPECT_EQ(options.integer("--frames"), 7);
    EXPECT_EQ(options.integer("--offset"), -3);
    EXPECT_EQ(options.integer("--csr"), 8);
    EXPECT_TRUE(options.given("--rate"));
    EXPECT_DOUBLE_EQ(options.real("--rate"), 0.0);
    EXPECT_EQ(options.string("--scene"), "office");
    EXPECT_EQ(options.string("--trace"), "t.json");
    EXPECT_EQ(options.list("--pyramid"), (std::vector<long>{4, 3, 2}));
    EXPECT_TRUE(options.flag("--quiet"));
}

TEST(Options, HelpWinsAnywhere)
{
    for (const char *help : {"--help", "-h"}) {
        Options options = sampleOptions();
        EXPECT_EQ(options.parse({"--bogus", help}), "");
        EXPECT_TRUE(options.helpRequested());
    }
}

TEST(Options, PassThroughKeepsPrefixedArguments)
{
    Options options = sampleOptions();
    options.passThrough("--benchmark_");
    ASSERT_EQ(options.parse({"--benchmark_filter=BM_X", "--frames", "2",
                             "--benchmark_repetitions=3"}),
              "");
    EXPECT_EQ(options.passedThrough(),
              (std::vector<std::string>{"--benchmark_filter=BM_X",
                                        "--benchmark_repetitions=3"}));
    EXPECT_EQ(options.integer("--frames"), 2);
}

TEST(Options, HelpListsEveryEntryWithItsDefaultAndRange)
{
    const Options options = sampleOptions();
    const std::string help = options.help();
    for (const char *name :
         {"--frames", "--csr", "--offset", "--rate", "--scene", "--trace",
          "--pyramid", "--quiet", "--help"})
        EXPECT_NE(help.find(std::string("\n  ") + name + " "),
                  std::string::npos)
            << name;
    EXPECT_NE(help.find("--frames N"), std::string::npos);
    EXPECT_NE(help.find("[>= 1; default 40]"), std::string::npos);
    EXPECT_NE(help.find("[1|2|4|8; default 1]"), std::string::npos);
    EXPECT_NE(help.find("--pyramid N,N,..."), std::string::npos);
    EXPECT_NE(help.find("--scene NAME"), std::string::npos);
    EXPECT_NE(help.find("--trace FILE"), std::string::npos);
}

TEST(Options, SharedGroupsDeclareEveryFlagOnce)
{
    // Duplicate names would panic while declaring.
    Options options("sample", "shared groups");
    slambench::core::addDseThreadsOption(options);
    slambench::core::addKernelOptions(options);
    slambench::core::addObservabilityOptions(options);
    ASSERT_EQ(options.parse({"--volume", "sparse"}), "");
    const std::string help = options.help();
    for (const char *name :
         {"--backend", "--volume", "--dse-threads", "--trace", "--metrics-json", "--frames-csv", "--telemetry-port",
          "--crash-dump", "--recorder-slots", "--slo-frame-p99-ms",
          "--slo-max-ate", "--slo-max-lost", "--slo-queue-stall-ms",
          "--trace-requests", "--trace-sample-rate", "--trace-store",
          "--quiet", "--verbose"})
        EXPECT_TRUE(options.declared(name)) << name;

    // Defaults leave the configuration as constructed.
    slambench::kfusion::KFusionConfig config;
    slambench::core::applyKernelOptions(options, config);
    EXPECT_EQ(config.kernelBackend, "auto");
    EXPECT_EQ(config.volumeBackend, "sparse");
}

TEST(Options, KernelGroupHasNoSparseTuningFlag)
{
    // The sparse volume has one block size (a free brick) and no
    // block-pool cap, so neither tuning flag exists.
    Options options("sample", "shared kernel group");
    slambench::core::addKernelOptions(options);
    for (const char *name : {"--block-size", "--pool-capacity"}) {
        EXPECT_FALSE(options.declared(name)) << name;
        EXPECT_NE(options.parse({name, "8"}).find("unknown option"),
                  std::string::npos)
            << name;
    }
}

TEST(Options, ThreadCountsAboveTheSharedBoundAreRejected)
{
    // Parsing only: a pool starts every thread it is asked for, so no
    // binary is ever run with a count above the bound.
    const std::string bound = std::to_string(slambench::core::kMaxThreads);
    const std::string above =
        std::to_string(slambench::core::kMaxThreads + 1);
    for (const char *name : {"--dse-threads", "--serve-threads"}) {
        SCOPED_TRACE(name);
        for (const std::string &value : {bound, std::string("0")}) {
            Options options("sample", "thread count");
            options.add({slambench::core::threadCountOption(name, "n")});
            ASSERT_EQ(options.parse({name, value}), "");
            EXPECT_EQ(options.integer(name), std::stol(value));
        }
        for (const std::string &value :
             {above, std::string("100000"), std::string("-1")}) {
            Options options("sample", "thread count");
            options.add({slambench::core::threadCountOption(name, "n")});
            EXPECT_NE(options.parse({name, value}).find("out of range"),
                      std::string::npos)
                << value;
        }
    }
    Options dse("sample", "dse threads");
    slambench::core::addDseThreadsOption(dse);
    EXPECT_NE(dse.parse({"--dse-threads", above}).find("out of range"),
              std::string::npos);
}

TEST(Options, PositionalsParseWholeIntegersInRange)
{
    using slambench::support::parsePositionals;
    const std::vector<slambench::support::PositionalSpec> specs = {
        {"budget", 24, 4},
        {"frames", 12, 1},
        {"threads", 0, 0, slambench::core::kMaxThreads}};
    std::vector<long> values;
    ASSERT_EQ(parsePositionals({}, specs, values), "");
    EXPECT_EQ(values, (std::vector<long>{24, 12, 0}));
    ASSERT_EQ(parsePositionals({"8", "3"}, specs, values), "");
    EXPECT_EQ(values, (std::vector<long>{8, 3, 0}));
    ASSERT_EQ(parsePositionals({"8", "3", "1024"}, specs, values), "");
    EXPECT_EQ(values, (std::vector<long>{8, 3, 1024}));

    const std::vector<std::pair<std::vector<std::string>, std::string>>
        rejected = {
            {{"abc"}, "budget: 'abc' is not an integer"},
            {{"12x"}, "budget: '12x' is not an integer"},
            {{"3"}, "budget: 3 is out of range (want >= 4)"},
            {{"24", "0"}, "frames: 0 is out of range"},
            {{"24", "12", "-1"}, "threads: -1 is out of range (want 0..1024)"},
            {{"24", "12", "1025"}, "threads: 1025 is out of range"},
            {{"24", "12", "1", "9"}, "unexpected argument '9'"},
        };
    for (const auto &[args, problem] : rejected) {
        values = {7};
        EXPECT_NE(parsePositionals(args, specs, values).find(problem),
                  std::string::npos)
            << problem;
        EXPECT_EQ(values, std::vector<long>{7}) << "touched on error";
    }
}

TEST(Options, ServeObservabilityGroupHasNoProfilingFlags)
{
    Options options("sample", "serve-style observability");
    slambench::core::addObservabilityOptions(options, false);
    EXPECT_FALSE(options.declared("--trace"));
    EXPECT_NE(options.parse({"--trace", "t.json"}).find("unknown option"),
              std::string::npos);
}

TEST(Options, ObservabilityGroupHasNoHardwareCounterFlag)
{
    // Per-kernel time needs no flag (pipeline.kernel_seconds and the
    // frames-CSV kernel columns), so no hardware-counter flag exists.
    Options options("sample", "shared observability group");
    slambench::core::addObservabilityOptions(options);
    EXPECT_FALSE(options.declared("--pmu"));
    EXPECT_NE(options.parse({"--pmu"}).find("unknown option"),
              std::string::npos);
}

TEST(Options, OutputPathCheckAcceptsWritableDirectoryAndCreatesNothing)
{
    // A bench_kernels-style table: only some output flags declared.
    // The check looks at the directory alone, so a run that never
    // crashes leaves no dump behind.
    const std::string path =
        ::testing::TempDir() + "options_test_never_written_crash.json";
    std::remove(path.c_str());
    Options options("sample", "kernel-bench outputs");
    options.add({
        {"--metrics-json", OptionType::String, "", "", "report"},
        {"--crash-dump", OptionType::String, "", "", "dump"},
    });
    ASSERT_EQ(options.parse({"--crash-dump", path}), "");
    EXPECT_EQ(&slambench::core::checkOutputPaths(options), &options);
    EXPECT_FALSE(std::ifstream(path).good());
}

} // namespace
