/**
 * @file
 * Seeded mutation fuzzing of the svc request parser. Starting from
 * one valid line per query kind, a fixed-seed generator applies byte
 * flips, truncations and splices of members taken from other kinds'
 * lines. Every input must either parse or be rejected with a
 * FatalError diagnostic; any other exception (a PanicError from a
 * broken invariant, a std::out_of_range from a bad index, ...) fails
 * the test. Every mutated line is also served, and each response
 * must be valid JSON. Run under the asan preset, this also catches
 * out-of-bounds reads the diagnostics would otherwise hide.
 */

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "svc/protocol.hh"
#include "svc/service.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace twocs {
namespace {

/** One valid request per kind: the mutation seeds. */
const std::vector<std::string> &
seedLines()
{
    static const std::vector<std::string> lines = {
        "{\"id\": 1, \"kind\": \"project\", \"hidden\": 65536, "
        "\"seqlen\": 4096, \"batch\": 2, \"parallel\": {\"tp\": 256, "
        "\"pp\": 4, \"zero\": 1}, \"flop_scale\": 4}",
        "{\"kind\": \"project\", \"ground_truth\": true, \"parallel\": "
        "{\"tp\": 16}, \"device\": \"MI210\"}",
        "{\"id\": \"a\", \"kind\": \"analyze\", \"model\": \"GPT-3\", "
        "\"parallel\": {\"tp\": 8, \"dp\": 4}, \"precision\": "
        "\"bf16\"}",
        "{\"kind\": \"slack\", \"hidden\": 8192, \"bw_scale\": 2, "
        "\"pin\": true}",
        "{\"kind\": \"memory\", \"model\": \"GPT-3\", \"parallel\": "
        "{\"tp\": 8, \"sp\": true}}",
        "{\"kind\": \"perturb\", \"hidden\": 4096, \"parallel\": "
        "{\"tp\": 4, \"dp\": 2}, \"perturb\": {\"task\": 12, "
        "\"scale\": 1.05}}",
        "{\"kind\": \"stats\"}",
    };
    return lines;
}

/** Members spliced into other lines (valid JSON, often the wrong
 *  kind, type or range), including the retired flat plan fields. */
const std::vector<std::string> &
splices()
{
    static const std::vector<std::string> members = {
        "\"tp\": 8",
        "\"dp\": 2",
        "\"parallel\": {\"tp\": 0}",
        "\"parallel\": {\"zero\": 9, \"ep\": 2}",
        "\"perturb\": {\"scale\": -1}",
        "\"perturb\": {\"task\": 4294967297}",
        "\"hidden\": 1e400",
        "\"seqlen\": -0",
        "\"model\": \"\\u00e9\\ud800\"",
        "\"device\": \"\"",
        "\"id\": null",
        "\"kind\": \"memory\"",
        "\"ground_truth\": \"yes\"",
        "\"batch\": 18446744073709551616",
    };
    return members;
}

/** Parse `line`; true if it parsed, false if it was rejected with a
 *  FatalError. Any other exception is a test failure. */
bool
parsesOrRejects(const std::string &line)
{
    try {
        const svc::Query q = svc::parseQuery(line);
        svc::canonicalKey(q);
        return true;
    } catch (const FatalError &) {
        return false;
    } catch (const std::exception &e) {
        ADD_FAILURE() << "non-diagnostic exception '" << e.what()
                      << "' on input: " << line;
        return false;
    }
}

/** One mutation of `line`, chosen by `rng`. */
std::string
mutate(std::string line, Rng &rng)
{
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.nextU64() % n);
    };
    switch (pick(4)) {
      case 0: // flip one byte to an arbitrary value
        if (!line.empty())
            line[pick(line.size())] =
                static_cast<char>(rng.nextU64() & 0xff);
        break;
      case 1: // truncate
        line.resize(pick(line.size() + 1));
        break;
      case 2: { // splice a member in after the opening brace
        const std::string &m = splices()[pick(splices().size())];
        if (!line.empty() && line.front() == '{')
            line.insert(1, m + ", ");
        break;
      }
      case 3: { // splice a member in at an arbitrary byte
        const std::string &m = splices()[pick(splices().size())];
        line.insert(pick(line.size() + 1), ", " + m);
        break;
      }
    }
    return line;
}

TEST(SvcParseFuzz, MutationsParseOrThrowFatal)
{
    for (const std::string &line : seedLines())
        ASSERT_TRUE(parsesOrRejects(line)) << "seed must parse: " << line;

    // Every mutated line is also served: whatever the parser made of
    // it, the response must be one valid JSON value.
    svc::QueryService service;
    Rng rng(20231017);
    int parsed = 0, rejected = 0;
    for (int round = 0; round < 4000; ++round) {
        std::string line =
            seedLines()[static_cast<std::size_t>(rng.nextU64() %
                                                 seedLines().size())];
        // Stack one to three mutations per input.
        const int depth = 1 + static_cast<int>(rng.nextU64() % 3);
        for (int k = 0; k < depth; ++k)
            line = mutate(std::move(line), rng);
        (parsesOrRejects(line) ? parsed : rejected)++;
        const std::string response = service.handle(line);
        EXPECT_NO_THROW(json::validate(response))
            << "request: " << line << "\nresponse: " << response;
    }
    // Both outcomes are exercised: the corpus is neither all-valid
    // nor all-garbage.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
}

TEST(SvcParseFuzz, TopLevelFlatPlanFieldsAreRejected)
{
    // The plan lives only in the structured `parallel` object:
    // splicing top-level tp/dp into any seed must never parse.
    for (const std::string &seed : seedLines()) {
        for (const char *flat : { "\"tp\": 8, ", "\"dp\": 2, " }) {
            const std::string line =
                "{" + std::string(flat) + seed.substr(1);
            EXPECT_THROW(svc::parseQuery(line), FatalError) << line;
        }
    }
}

} // namespace
} // namespace twocs
