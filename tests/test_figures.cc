/**
 * @file
 * The figure registry's gate. Every registered figure's claims must
 * hold in their bands (`ctest -R FigureRegistry -V` prints each claim
 * line), and every figure must render the same bytes at any --jobs.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>

#include "cli/args.hh"
#include "cli/commands.hh"
#include "core/figures.hh"
#include "util/logging.hh"

namespace twocs {
namespace {

/** One claim line: "[PASS] name: observed 0.47 (paper band [...])". */
std::string
claimLine(const core::FigureClaim &c)
{
    const char *verdict = c.holds() ? "PASS" : "FAIL";
    if (c.isBoolean())
        return std::string("[") + verdict + "] " + c.name;
    char tail[128];
    std::snprintf(tail, sizeof(tail),
                  ": observed %.3g (paper band [%.3g, %.3g])",
                  c.observed, c.lo, c.hi);
    return std::string("[") + verdict + "] " + c.name + tail;
}

TEST(FigureRegistry, EveryClaimHoldsInItsBand)
{
    int claims = 0;
    for (const core::Figure &f : core::figures()) {
        std::printf("\n=== %s: %s ===\n", f.id, f.title);
        for (const core::FigureClaim &c : f.claims()) {
            ++claims;
            std::printf("%s\n", claimLine(c).c_str());
            EXPECT_TRUE(c.holds()) << f.id << ": " << claimLine(c);
        }
    }
    // A claim that silently drops out of an entry fails here too.
    EXPECT_EQ(claims, 90);
}

TEST(FigureRegistry, OutputIsIdenticalAtAnyJobs)
{
    for (const core::Figure &f : core::figures()) {
        core::FigureOptions serial, parallel;
        serial.runner.jobs = 1;
        parallel.runner.jobs = 4;
        std::ostringstream a, b;
        f.render(serial, a);
        f.render(parallel, b);
        EXPECT_FALSE(a.str().empty()) << f.id;
        EXPECT_EQ(a.str(), b.str()) << f.id;
    }
}

TEST(FigureRegistry, IdsAreUniqueAndListedInOrder)
{
    std::set<std::string> ids;
    std::string list;
    for (const core::Figure &f : core::figures()) {
        EXPECT_TRUE(ids.insert(f.id).second) << f.id;
        EXPECT_EQ(core::findFigure(f.id), &f);
        list += list.empty() ? "" : ", ";
        list += f.id;
    }
    EXPECT_EQ(core::findFigure("9"), nullptr);
    // "a, b, c" becomes "a, b or c".
    list.replace(list.rfind(", "), 2, " or ");
    EXPECT_EQ(core::figureIdList(), list);
}

TEST(FigureRegistry, CsvRendersEveryTableAsCsv)
{
    core::FigureOptions options;
    options.csv = true;
    std::ostringstream os;
    core::findFigure("hw-trends")->render(options, os);
    EXPECT_EQ(os.str().rfind("device,year,FP16 peak,", 0), 0u)
        << os.str();
    EXPECT_NE(os.str().find("\ngeneration pair,FLOPS scale,"),
              std::string::npos);
}

TEST(FigureRegistry, SweepRejectsAnUnknownIdWithTheRegistryList)
{
    const char *argv[] = { "twocs", "sweep", "--figure", "9" };
    const cli::Args args = cli::Args::parse(4, argv);
    try {
        cli::runCommand(args);
        FAIL() << "figure 9 was accepted";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "--figure must be " + core::figureIdList() +
                      ", got '9'");
    }
}

} // namespace
} // namespace twocs
