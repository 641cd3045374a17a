/**
 * @file
 * Tests for the declarative command registry: generated usage and
 * per-command help, registry-driven unknown-flag rejection, and the
 * extended Args grammar (--key=value, bare boolean flags, negative
 * number values, repeated-flag last-wins).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <vector>

#include "cli/args.hh"
#include "cli/commands.hh"
#include "util/logging.hh"

namespace twocs {
namespace {

/** RAII stdout capture that survives exceptions. */
class CoutCapture
{
  public:
    CoutCapture() : old_(std::cout.rdbuf(capture_.rdbuf())) {}
    ~CoutCapture() { std::cout.rdbuf(old_); }
    std::string str() const { return capture_.str(); }

  private:
    std::ostringstream capture_;
    std::streambuf *old_;
};

/** RAII stderr capture. */
class CerrCapture
{
  public:
    CerrCapture() : old_(std::cerr.rdbuf(capture_.rdbuf())) {}
    ~CerrCapture() { std::cerr.rdbuf(old_); }
    std::string str() const { return capture_.str(); }

  private:
    std::ostringstream capture_;
    std::streambuf *old_;
};

int
run(std::initializer_list<const char *> argv_list, std::string *out,
    std::string *err = nullptr)
{
    std::vector<const char *> argv(argv_list);
    const cli::Args args =
        cli::Args::parse(static_cast<int>(argv.size()), argv.data());
    CoutCapture cout_capture;
    CerrCapture cerr_capture;
    const int rc = cli::runCommand(args);
    if (out != nullptr)
        *out = cout_capture.str();
    if (err != nullptr)
        *err = cerr_capture.str();
    return rc;
}

// --- the registry itself ---

TEST(CliRegistry, EveryCommandIsWellFormed)
{
    const auto &registry = cli::commandRegistry();
    ASSERT_FALSE(registry.empty());
    for (const cli::CommandSpec &spec : registry) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_FALSE(spec.summary.empty()) << spec.name;
        EXPECT_NE(spec.handler, nullptr) << spec.name;
        for (const cli::FlagSpec &flag : spec.flags) {
            EXPECT_FALSE(flag.name.empty()) << spec.name;
            EXPECT_FALSE(flag.help.empty())
                << spec.name << " --" << flag.name;
            // Flag names are unique within a command, so lookup
            // finds this exact spec.
            EXPECT_EQ(spec.findFlag(flag.name), &flag)
                << spec.name << " --" << flag.name;
        }
        EXPECT_EQ(spec.findFlag("no-such-flag"), nullptr);
    }
    EXPECT_NE(cli::findCommand("sweep"), nullptr);
    EXPECT_EQ(cli::findCommand("frobnicate"), nullptr);
}

TEST(CliRegistry, UsageIsGeneratedFromTheRegistry)
{
    std::ostringstream os;
    cli::printUsage(os);
    const std::string usage = os.str();
    EXPECT_EQ(usage.rfind("usage: twocs <command>", 0), 0u);
    for (const cli::CommandSpec &spec : cli::commandRegistry()) {
        EXPECT_NE(usage.find("\n  " + spec.name + " "),
                  std::string::npos)
            << spec.name;
        EXPECT_NE(usage.find(spec.summary), std::string::npos)
            << spec.name;
    }
}

TEST(CliRegistry, HelpCommandMatchesPrintCommandHelpForEveryCommand)
{
    for (const cli::CommandSpec &spec : cli::commandRegistry()) {
        std::ostringstream expected;
        cli::printCommandHelp(spec, expected);
        std::string out;
        EXPECT_EQ(run({ "twocs", "help", spec.name.c_str() }, &out),
                  0);
        EXPECT_EQ(out, expected.str()) << spec.name;
        // The page names every declared flag with its default.
        for (const cli::FlagSpec &flag : spec.flags) {
            EXPECT_NE(out.find("--" + flag.name + " "),
                      std::string::npos)
                << spec.name << " --" << flag.name;
            if (!flag.defaultValue.empty()) {
                EXPECT_NE(out.find("(default: " + flag.defaultValue +
                                   ")"),
                          std::string::npos)
                    << spec.name << " --" << flag.name;
            }
        }
    }
}

TEST(CliRegistry, GoldenHelpPageForSweep)
{
    std::string out;
    EXPECT_EQ(run({ "twocs", "help", "sweep" }, &out), 0);
    EXPECT_EQ(
        out,
        "usage: twocs sweep [flags]\n"
        "\n"
        "  regenerate a figure's data grid\n"
        "\n"
        "flags:\n"
        "  --figure INT            figure to regenerate: 2, 10, 11,"
        " 12 or 14 (default: 10)\n"
        "  --csv BOOL              emit CSV instead of a table"
        " (default: 0)\n"
        "  --passes STR            graph pass pipeline (figure 14"
        " only)\n"
        "  --engine STR            figure 12 evaluation engine:"
        " model|event (default: model)\n"
        "  --parallel STR          3D plan, e.g."
        " tp=8,pp=4,dp=2,zero=1,ep=8\n"
        "  --device STR            hardware catalog device name"
        " (default: MI210)\n"
        "  --flop-scale NUM        scale device FLOP rate (future hw)"
        " (default: 1)\n"
        "  --bw-scale NUM          scale link bandwidth (future hw)"
        " (default: 1)\n"
        "  --pin BOOL              enable in-network (switch)"
        " reduction (default: 0)\n"
        "  --topology STR          fabric: single or"
        " multi:<perNode>[:slowdown] (default: single)\n"
        "  --jobs INT              worker threads (0 = all cores)"
        " (default: 0)\n"
        "  --report STR            write the RunReport JSON here\n"
        "  --trace-out STR         write a span trace of this run"
        " here\n"
        "  --trace-categories STR  exec,svc,sim,comm,cli,bench,net"
        " or all (default: all)\n"
        "  --trace-format STR      trace file format: chrome|folded"
        " (default: chrome)\n");
}

TEST(CliRegistry, GoldenEngineLineForCluster)
{
    // cluster has one trial engine (compiled replay; the per-trial
    // rebuild is a test oracle), so its help page offers no engine
    // or lane-width choice.
    std::string out;
    EXPECT_EQ(run({ "twocs", "help", "cluster" }, &out), 0);
    EXPECT_NE(out.find("\n  --trials INT"), std::string::npos) << out;
    EXPECT_EQ(out.find("--engine"), std::string::npos) << out;
    EXPECT_EQ(out.find("--lanes"), std::string::npos) << out;
}

TEST(CliRegistry, BareHelpPrintsUsageAndUnknownTopicFails)
{
    std::string out;
    EXPECT_EQ(run({ "twocs", "help" }, &out), 0);
    EXPECT_EQ(out.rfind("usage: twocs <command>", 0), 0u);

    std::string err;
    EXPECT_EQ(run({ "twocs", "help", "frobnicate" }, &out, &err), 2);
    EXPECT_EQ(out, "");
    EXPECT_NE(err.find("unknown command 'frobnicate'"),
              std::string::npos);
    EXPECT_NE(err.find("usage:"), std::string::npos);
}

// --- registry-driven argument validation ---

TEST(CliRegistry, UnknownOptionNamesFlagAndCommand)
{
    std::string out, err;
    EXPECT_EQ(run({ "twocs", "sweep", "--figrue", "10" }, &out, &err),
              2);
    EXPECT_EQ(out, "");
    EXPECT_NE(err.find("unknown option '--figrue' for command "
                       "'sweep'"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("twocs help sweep"), std::string::npos);
}

TEST(CliRegistry, BareNonBooleanFlagIsRejected)
{
    std::string out, err;
    EXPECT_EQ(run({ "twocs", "sweep", "--figure" }, &out, &err), 2);
    EXPECT_NE(err.find("option '--figure' of command 'sweep' expects "
                       "an integer value"),
              std::string::npos)
        << err;
    // Bare booleans are the documented shorthand.
    EXPECT_EQ(run({ "twocs", "sweep", "--figure", "11", "--csv" },
                  &out, &err),
              0);
    EXPECT_NE(out.find("H,SL_x_B"), std::string::npos);
}

TEST(CliRegistry, ClusterRejectsLanesWithoutBatchedEngine)
{
    // The batched engine and its --lanes width are gone: both flags
    // are unknown options now, in trial and single-run mode alike.
    std::string out, err;
    EXPECT_EQ(run({ "twocs", "cluster", "--trials", "4", "--engine",
                    "batched" },
                  &out, &err),
              2);
    EXPECT_NE(err.find("unknown option '--engine'"), std::string::npos)
        << err;
    EXPECT_EQ(run({ "twocs", "cluster", "--trials", "4", "--engine",
                    "replay" },
                  &out, &err),
              2);
    EXPECT_EQ(run({ "twocs", "cluster", "--trials", "4", "--lanes",
                    "4" },
                  &out, &err),
              2);
    EXPECT_EQ(run({ "twocs", "cluster", "--lanes", "4" }, &out, &err),
              2);
    EXPECT_NE(err.find("unknown option '--lanes'"), std::string::npos)
        << err;
    EXPECT_EQ(run({ "twocs", "cluster", "--trials", "2" }, &out), 0);
    EXPECT_NE(out.find("mean iteration"), std::string::npos);
}

TEST(CliRegistry, SweepFigure12EngineIsValidated)
{
    // Unknown engine names and --engine on an analytic figure are
    // configuration errors, not silent fallbacks.
    // The retired figure-12 engine names are unknown now too.
    for (const char *engine : { "warp", "rebuild", "cached", "delta" })
        EXPECT_THROW(run({ "twocs", "sweep", "--figure", "12",
                           "--engine", engine },
                         nullptr),
                     FatalError)
            << engine;
    EXPECT_THROW(run({ "twocs", "sweep", "--figure", "10", "--engine",
                       "event" },
                     nullptr),
                 FatalError);
    // The event-engine study rejects --parallel (it runs each model
    // line at its required TP).
    EXPECT_THROW(run({ "twocs", "sweep", "--figure", "12", "--engine",
                       "event", "--parallel", "tp=8" },
                     nullptr),
                 FatalError);
}

TEST(CliRegistry, StrayPositionalIsRejected)
{
    std::string out, err;
    EXPECT_EQ(run({ "twocs", "zoo", "extra" }, &out, &err), 2);
    EXPECT_NE(err.find("unexpected argument 'extra' for command "
                       "'zoo'"),
              std::string::npos)
        << err;
}

TEST(CliRegistry, ValidateCommandChecksJsonFiles)
{
    const std::string good =
        testing::TempDir() + "/twocs_validate_good.json";
    const std::string bad =
        testing::TempDir() + "/twocs_validate_bad.json";
    {
        std::ofstream g(good);
        g << "[{\"ok\": true}, 1, \"two\", null]";
        std::ofstream b(bad);
        b << "[{\"ok\": true},]";
    }
    std::string out;
    EXPECT_EQ(run({ "twocs", "validate", "--trace", good.c_str() },
                  &out),
              0);
    EXPECT_NE(out.find("valid JSON"), std::string::npos);
    EXPECT_THROW(run({ "twocs", "validate", "--trace", bad.c_str() },
                     nullptr),
                 FatalError);
    EXPECT_THROW(run({ "twocs", "validate" }, nullptr), FatalError);
    std::remove(good.c_str());
    std::remove(bad.c_str());
}

// --- the extended Args grammar ---

TEST(CliArgsV2, EqualsFormAndBareBooleansParse)
{
    const char *argv[] = { "twocs", "sweep", "--figure=11", "--csv",
                           "--device=MI250X" };
    const cli::Args args = cli::Args::parse(5, argv);
    EXPECT_EQ(args.getInt("figure", 0), 11);
    EXPECT_EQ(args.get("device"), "MI250X");
    EXPECT_EQ(args.get("csv"), "1");
    EXPECT_TRUE(args.wasBare("csv"));
    EXPECT_FALSE(args.wasBare("figure"));
}

TEST(CliArgsV2, NegativeNumbersAreValuesNotFlags)
{
    const char *argv[] = { "twocs", "cluster", "--jitter", "-0.1",
                           "--seed", "-3" };
    const cli::Args args = cli::Args::parse(6, argv);
    EXPECT_DOUBLE_EQ(args.getDouble("jitter", 0.0), -0.1);
    EXPECT_EQ(args.getInt("seed", 0), -3);
    EXPECT_FALSE(args.wasBare("jitter"));
}

TEST(CliArgsV2, RepeatedFlagsKeepTheLastValue)
{
    const char *argv[] = { "twocs", "sweep", "--figure", "10",
                           "--figure=11" };
    const cli::Args args = cli::Args::parse(5, argv);
    EXPECT_EQ(args.getInt("figure", 0), 11);
    ASSERT_EQ(args.keys().size(), 1u);

    // A bare flag later given a value is no longer bare.
    const char *argv2[] = { "twocs", "sweep", "--csv", "--csv=0" };
    const cli::Args args2 = cli::Args::parse(4, argv2);
    EXPECT_EQ(args2.get("csv"), "0");
    EXPECT_FALSE(args2.wasBare("csv"));
}

TEST(CliArgsV2, MalformedEqualsFormIsRejected)
{
    const char *argv[] = { "twocs", "sweep", "--=11" };
    EXPECT_THROW(cli::Args::parse(3, argv), FatalError);
}

} // namespace
} // namespace twocs
