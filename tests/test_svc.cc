/**
 * @file
 * Tests for the projection query service (src/svc): the strict
 * protocol parser and its diagnostics, canonical cache keys, the
 * sharded LRU cache, the metrics registry, the batching scheduler's
 * determinism contract (`--jobs 1` and `--jobs N` agree
 * byte-for-byte), and the `twocs serve` CLI surface.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.hh"
#include "core/amdahl.hh"
#include "core/case_study.hh"
#include "sim/graph.hh"
#include "sim/graph_cache.hh"
#include "svc/cache.hh"
#include "svc/protocol.hh"
#include "svc/service.hh"
#include "test_common.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace twocs {
namespace {

// --- protocol parsing ---

/** The FatalError message a line's parse produces ("" if it parses). */
std::string
parseError(const std::string &line)
{
    try {
        svc::parseQuery(line);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(SvcProtocol, DefaultsMirrorTheCliCommands)
{
    const svc::Query p = svc::parseQuery("{\"kind\": \"project\"}");
    EXPECT_EQ(p.hidden, 16384);
    EXPECT_EQ(p.seqLen, 2048);
    EXPECT_EQ(p.batch, 1);
    EXPECT_EQ(p.tpDegree, 64);
    EXPECT_FALSE(p.groundTruth);
    EXPECT_EQ(p.device, "MI210");

    const svc::Query s = svc::parseQuery("{\"kind\": \"slack\"}");
    EXPECT_EQ(s.hidden, 16384);
    EXPECT_EQ(s.seqLen, 4096);
    EXPECT_EQ(s.batch, 1);

    const svc::Query a = svc::parseQuery("{\"kind\": \"analyze\"}");
    EXPECT_EQ(a.model, "BERT");
    EXPECT_EQ(a.tpDegree, 1);
    EXPECT_EQ(a.dpDegree, 1);
    EXPECT_FALSE(a.batchSet);

    const svc::Query m = svc::parseQuery("{\"kind\": \"memory\"}");
    EXPECT_EQ(m.model, "GPT-3");
    EXPECT_FALSE(m.tpSet);
}

TEST(SvcProtocol, StrictParseDiagnostics)
{
    EXPECT_NE(parseError("not json")
                  .find("byte 0: a request must be one JSON object"),
              std::string::npos);
    EXPECT_NE(parseError("{}").find("missing the 'kind' field"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"frobnicate\"}")
                  .find("unknown kind 'frobnicate'"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"project\", \"hiden\": 1}")
                  .find("unknown field 'hiden'"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"project\", \"model\": \"BERT\"}")
                  .find("field 'model' does not apply to kind "
                        "'project'"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"project\", \"hidden\": 4, "
                         "\"hidden\": 8}")
                  .find("duplicate field 'hidden'"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"project\", \"hidden\": \"big\"}")
                  .find("field 'hidden' expects a number"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"project\", \"hidden\": 2.5}")
                  .find("field 'hidden' expects an integer"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"project\", \"hidden\": 0}")
                  .find("field 'hidden' must be in ["),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"project\", "
                         "\"ground_truth\": 1}")
                  .find("field 'ground_truth' expects true or false"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"stats\"} trailing")
                  .find("trailing content after the request object"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"project\", \"seqlen\": {\"x\": 1}}")
                  .find("must be a scalar"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"analyze\", "
                         "\"model\": \"a\\ud800b\"}")
                  .find("surrogate \\u escapes are not supported"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"analyze\", "
                         "\"precision\": \"fp12\"}")
                  .find("unknown precision 'fp12'"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"project\", "
                         "\"device\": \"HAL9000\"}")
                  .find("HAL9000"),
              std::string::npos);
    EXPECT_NE(parseError("{\"kind\": \"stats\", \"id\": null}")
                  .find("field 'id' expects a number or a string"),
              std::string::npos);
}

TEST(SvcProtocol, SyntaxErrorsCarryTheirByteOffset)
{
    try {
        svc::parseQuery("{\"kind\" \"x\"}");
        FAIL() << "a missing ':' must not parse";
    } catch (const svc::ParseError &e) {
        EXPECT_EQ(e.offset, 8u);
        EXPECT_EQ(std::string(e.what()),
                  "byte 8: expected ':' after key 'kind'");
    }
    // Semantic errors name a field, not a byte.
    try {
        svc::parseQuery("{\"kind\": \"bogus byte 99\"}");
        FAIL() << "an unknown kind must not parse";
    } catch (const svc::ParseError &) {
        FAIL() << "an unknown kind is not a syntax error";
    } catch (const FatalError &) {
    }
}

TEST(SvcProtocol, NumbersFollowTheJsonGrammar)
{
    // Tokens strtod accepts but RFC 8259 does not: rejected with the
    // number diagnostic at the token's offset.
    EXPECT_EQ(parseError("{\"id\":01,\"kind\":\"stats\"}"),
              "byte 6: '01' is not a valid JSON number");
    EXPECT_EQ(parseError("{\"id\":-0.,\"kind\":\"stats\"}"),
              "byte 6: '-0.' is not a valid JSON number");
    EXPECT_EQ(parseError("{\"kind\":\"project\",\"hidden\":1.}"),
              "byte 27: '1.' is not a valid JSON number");
    EXPECT_EQ(parseError("{\"kind\":\"project\",\"hidden\":1e999}"),
              "byte 27: '1e999' is not a valid JSON number");
    // Valid numbers still parse, and the id echoes verbatim.
    EXPECT_EQ(svc::parseQuery("{\"id\":-0,\"kind\":\"stats\"}").idJson,
              "-0");
    EXPECT_EQ(
        svc::parseQuery("{\"id\":2.5e-3,\"kind\":\"stats\"}").idJson,
        "2.5e-3");
    EXPECT_EQ(
        svc::parseQuery("{\"kind\":\"project\",\"hidden\":4096.0}")
            .hidden,
        4096);

    // Error responses echo an id only when it is valid JSON.
    EXPECT_EQ(svc::tryExtractIdJson("{\"id\":01,\"kind\":\"x\"}"), "");
    EXPECT_EQ(svc::tryExtractIdJson("{\"id\":-0.,\"kind\":\"x\"}"), "");
    EXPECT_EQ(svc::tryExtractIdJson("{\"id\":\"a\\q\",\"kind\":1}"), "");
    EXPECT_EQ(svc::tryExtractIdJson("{\"id\": 7, \"kind\": 1}"), "7");
    EXPECT_EQ(svc::tryExtractIdJson("{\"id\":\"r\\n9\",\"kind\":1}"),
              "\"r\\n9\"");
}

TEST(SvcProtocol, CanonicalKeyNormalizesSpelling)
{
    // Defaults spelled out, reordered, and whitespace-mangled must
    // produce the same key as the bare request.
    const std::string bare =
        svc::canonicalKey(svc::parseQuery("{\"kind\": \"project\"}"));
    const std::string spelled = svc::canonicalKey(svc::parseQuery(
        "{ \"parallel\":{\"tp\":64} ,\"batch\": 1, \"kind\": \"project\","
        "\"seqlen\": 2048, \"hidden\": 16384, \"id\": 99 }"));
    EXPECT_EQ(bare, spelled);
    EXPECT_NE(bare, "");

    // The id is echoed but never part of the key; tp is.
    EXPECT_NE(svc::canonicalKey(svc::parseQuery(
                  "{\"kind\": \"project\", \"parallel\": {\"tp\": 32}}")),
              bare);
    // Stats queries are never cached.
    EXPECT_EQ(svc::canonicalKey(svc::parseQuery("{\"kind\": \"stats\"}")),
              "");
}

TEST(SvcProtocol, CanonicalKeysArePinned)
{
    // One structured request per query kind, each pinned to its
    // exact cache key. Keys index cached bytes, so any drift here
    // silently splits or merges cache entries.
    const std::pair<const char *, const char *> cases[] = {
        { "{\"kind\": \"project\"}",
          "v2|project|dev=MI210|fs=1|bw=1|pin=0|h=16384|sl=2048|b=1|"
          "tp=64|dp=1|pp=1|mb=1|zero=0|ep=1|sp=0|ov=1|gt=0" },
        { "{\"kind\": \"project\", \"hidden\": 65536, \"seqlen\": "
          "4096, \"batch\": 2, \"parallel\": {\"tp\": 256, \"pp\": 4, "
          "\"zero\": 1}, \"flop_scale\": 4}",
          "v2|project|dev=MI210|fs=4|bw=1|pin=0|h=65536|sl=4096|b=2|"
          "tp=256|dp=1|pp=4|mb=1|zero=1|ep=1|sp=0|ov=1|gt=0" },
        { "{\"kind\": \"project\", \"hidden\": 8192, \"parallel\": "
          "{\"tp\": 16}, \"ground_truth\": true}",
          "v2|project|dev=MI210|fs=1|bw=1|pin=0|h=8192|sl=2048|b=1|"
          "tp=16|dp=1|pp=1|mb=1|zero=0|ep=1|sp=0|ov=1|gt=1" },
        { "{\"kind\": \"analyze\", \"model\": \"GPT-3\", \"parallel\": "
          "{\"tp\": 8, \"dp\": 4}, \"batch\": 8, \"precision\": "
          "\"bf16\"}",
          "v2|analyze|dev=MI210|fs=1|bw=1|pin=0|model=GPT-3|tp=8|dp=4|"
          "pp=1|mb=1|zero=0|ep=1|sp=0|ov=1|b=8|prec=bf16" },
        { "{\"kind\": \"slack\", \"hidden\": 8192, \"seqlen\": 2048, "
          "\"bw_scale\": 2, \"pin\": true}",
          "v2|slack|dev=MI210|fs=1|bw=2|pin=1|h=8192|sl=2048|b=1" },
        { "{\"kind\": \"memory\", \"model\": \"GPT-3\"}",
          "v2|memory|dev=MI210|fs=1|bw=1|pin=0|model=GPT-3|tp=min|dp=1|"
          "pp=1|mb=1|zero=0|ep=1|sp=0|ov=1|prec=fp16" },
        { "{\"kind\": \"memory\", \"model\": \"GPT-3\", \"parallel\": "
          "{\"tp\": 8}}",
          "v2|memory|dev=MI210|fs=1|bw=1|pin=0|model=GPT-3|tp=8|dp=1|"
          "pp=1|mb=1|zero=0|ep=1|sp=0|ov=1|prec=fp16" },
        { "{\"kind\": \"perturb\", \"hidden\": 4096, \"seqlen\": 1024, "
          "\"parallel\": {\"tp\": 4, \"dp\": 2}, \"perturb\": "
          "{\"task\": 12, \"scale\": 1.05}}",
          "v2|perturb|dev=MI210|fs=1|bw=1|pin=0|h=4096|sl=1024|b=1|"
          "tp=4|dp=2|pp=1|mb=1|zero=0|ep=1|sp=0|ov=1|task=12|"
          "scale=1.05" },
        { "{\"kind\": \"stats\"}", "" },
    };
    for (const auto &[line, key] : cases)
        EXPECT_EQ(svc::canonicalKey(svc::parseQuery(line)), key)
            << line;
}

TEST(SvcProtocol, Fnv1aMatchesReferenceVectors)
{
    EXPECT_EQ(svc::fnv1a(""), 14695981039346656037ull);
    EXPECT_EQ(svc::fnv1a("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(svc::fnv1a("foobar"), 0x85944171f73967e8ull);
}

// --- the result cache ---

namespace {

/** Dereference a cache hit ("?" on miss, like value_or before the
 *  cache moved to shared payloads). */
std::string
deref(const svc::ShardedLruCache::ValuePtr &hit)
{
    return hit ? *hit : std::string("?");
}

} // namespace

TEST(SvcCache, LruEvictsTheColdestEntry)
{
    // One shard of capacity 2 so the eviction order is exact.
    svc::ShardedLruCache cache(2, 1);
    cache.put("a", "1");
    cache.put("b", "2");
    EXPECT_EQ(deref(cache.get("a")), "1"); // refresh a
    cache.put("c", "3");                   // evicts b
    EXPECT_TRUE(cache.get("a") != nullptr);
    EXPECT_TRUE(cache.get("b") == nullptr);
    EXPECT_EQ(deref(cache.get("c")), "3");
    EXPECT_EQ(cache.size(), 2u);
}

TEST(SvcCache, PutRefreshesAnExistingKey)
{
    svc::ShardedLruCache cache(4, 1);
    cache.put("k", "old");
    cache.put("k", "new");
    EXPECT_EQ(deref(cache.get("k")), "new");
    EXPECT_EQ(cache.size(), 1u);
}

TEST(SvcCache, HitsShareOneStoredPayload)
{
    // Two hits return the same bytes, not two copies: the payload
    // lives once in the cache and is handed out by reference count.
    svc::ShardedLruCache cache(4, 1);
    cache.put("k", "payload");
    const auto a = cache.get("k");
    const auto b = cache.get("k");
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(*a, "payload");
}

TEST(SvcCache, ZeroCapacityDisablesCaching)
{
    svc::ShardedLruCache cache(0);
    cache.put("k", "v");
    EXPECT_TRUE(cache.get("k") == nullptr);
    EXPECT_EQ(cache.size(), 0u);
}

// --- the query service ---

TEST(SvcService, WarmHitIsByteIdenticalToColdMiss)
{
    svc::QueryService service;
    const std::string line =
        "{\"kind\": \"project\", \"hidden\": 8192, "
        "\"parallel\": {\"tp\": 16}}";
    const std::string cold = service.handle(line);
    const std::string warm = service.handle(line);
    EXPECT_EQ(cold, warm);
    EXPECT_NE(cold.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_EQ(service.metrics().requests(), 2u);
    EXPECT_EQ(service.metrics().misses(), 1u);
    EXPECT_EQ(service.metrics().hits(), 1u);
    EXPECT_EQ(service.cache().size(), 1u);
}

TEST(SvcService, ProjectResponseMatchesTheAnalysis)
{
    // The service must serve exactly what the library computes.
    core::AmdahlAnalysis analysis(test::paperSystem());
    const core::AmdahlPoint p = analysis.evaluate(8192, 2048, 1, 16);

    svc::QueryService service;
    const std::string response = service.handle(
        "{\"kind\": \"project\", \"hidden\": 8192, "
        "\"parallel\": {\"tp\": 16}}");
    EXPECT_NE(response.find("\"compute_seconds\":" +
                            json::number(p.computeTime)),
              std::string::npos)
        << response;
    EXPECT_NE(response.find("\"comm_fraction\":" +
                            json::number(p.commFraction())),
              std::string::npos)
        << response;
}

TEST(SvcService, IdIsEchoedVerbatim)
{
    svc::QueryService service;
    EXPECT_EQ(service
                  .handle("{\"id\": 7, \"kind\": \"stats\"}")
                  .rfind("{\"id\":7,", 0),
              0u);
    EXPECT_EQ(service
                  .handle("{\"id\": \"job-3\", \"kind\": \"stats\"}")
                  .rfind("{\"id\":\"job-3\",", 0),
              0u);
    // A float id is legal and echoed with its spelling intact.
    EXPECT_EQ(service
                  .handle("{\"id\": 1e3, \"kind\": \"stats\"}")
                  .rfind("{\"id\":1e3,", 0),
              0u);
}

TEST(SvcService, InBatchDuplicatesAreHitsEvenWithoutACache)
{
    // Capacity 0 disables the cache, so the dedup must happen inside
    // the batch for the duplicate to count as a hit.
    svc::ServiceOptions options;
    options.cacheCapacity = 0;
    svc::QueryService service(options);
    std::istringstream in(
        "{\"kind\": \"slack\", \"hidden\": 8192}\n"
        "{\"kind\": \"slack\", \"hidden\": 8192}\n"
        "{\"kind\": \"slack\", \"hidden\": 8192}\n");
    std::ostringstream out;
    service.serve(in, out);
    EXPECT_EQ(service.metrics().requests(), 3u);
    EXPECT_EQ(service.metrics().misses(), 1u);
    EXPECT_EQ(service.metrics().hits(), 2u);
    EXPECT_EQ(service.cache().size(), 0u);

    // All three response lines carry the same payload.
    std::istringstream lines(out.str());
    std::string first, line;
    ASSERT_TRUE(std::getline(lines, first));
    while (std::getline(lines, line))
        EXPECT_EQ(line, first);
}

TEST(SvcService, ErrorsAreDiagnosedInlineAndNeverCached)
{
    svc::QueryService service;
    const std::string bad = "{\"kind\": \"project\", \"hiden\": 1}";
    const std::string first = service.handle(bad);
    EXPECT_NE(first.find("\"status\":\"error\""), std::string::npos);
    EXPECT_NE(first.find("unknown field 'hiden'"), std::string::npos);
    // The diagnostic names the request's line number in the stream.
    EXPECT_NE(first.find("line 1:"), std::string::npos);
    service.handle(bad);
    EXPECT_EQ(service.metrics().failures(), 2u);
    EXPECT_EQ(service.metrics().hits(), 0u);
    EXPECT_EQ(service.cache().size(), 0u);

    // An eval-time failure (unknown zoo model passes parsing) is an
    // error response too, with no line prefix and no cache entry.
    const std::string evalError = service.handle(
        "{\"kind\": \"memory\", \"model\": \"ELIZA\"}");
    EXPECT_NE(evalError.find("\"status\":\"error\""),
              std::string::npos);
    EXPECT_EQ(service.metrics().failures(), 3u);
    EXPECT_EQ(service.cache().size(), 0u);
}

TEST(SvcService, StatsCountsItselfAtItsStreamPosition)
{
    svc::QueryService service;
    std::istringstream in(
        "{\"kind\": \"slack\"}\n"
        "{\"kind\": \"stats\"}\n"
        "{\"kind\": \"stats\"}\n");
    std::ostringstream out;
    service.serve(in, out);
    // The first stats sees itself as request #2; the second as #3.
    EXPECT_NE(out.str().find("\"requests\":2,\"hits\":0,\"misses\":1,"
                             "\"failures\":0,\"cache_entries\":1"),
              std::string::npos)
        << out.str();
    EXPECT_NE(out.str().find("\"requests\":3"), std::string::npos);
}

/** A mixed workload exercising every kind, errors and duplicates. */
std::string
mixedWorkload()
{
    std::ostringstream os;
    for (const int tp : { 8, 16, 32, 64 }) {
        os << "{\"kind\": \"project\", \"hidden\": 8192, "
              "\"parallel\": {\"tp\": "
           << tp << "}}\n";
    }
    os << "{\"kind\": \"project\", \"hidden\": 8192, "
          "\"parallel\": {\"tp\": 16}}\n"
       << "{\"id\": 1, \"kind\": \"slack\", \"hidden\": 8192}\n"
       << "{\"kind\": \"analyze\", \"model\": \"BERT\", "
          "\"parallel\": {\"tp\": 4}}\n"
       << "{\"kind\": \"memory\", \"model\": \"GPT-3\"}\n"
       << "{\"kind\": \"memory\", \"model\": \"ELIZA\"}\n"
       << "this line is broken\n"
       << "\n"
       << "{\"kind\": \"stats\"}\n"
       << "{\"kind\": \"project\", \"flop_scale\": 4, \"bw_scale\": "
          "2}\n";
    // A block of 40 distinct misses plus one failing evaluation: at
    // --jobs 2 and 8 the batch's fan-out spans several chunks, which
    // different workers claim and finish out of order.
    for (const int hidden : { 1024, 2048, 4096, 16384, 32768 }) {
        for (const int tp : { 1, 2, 4, 8, 16, 32, 64, 128 }) {
            os << "{\"kind\": \"project\", \"hidden\": " << hidden
               << ", \"parallel\": {\"tp\": " << tp << "}}\n";
        }
        if (hidden == 4096)
            os << "{\"kind\": \"memory\", \"model\": \"PARRY\"}\n";
    }
    os << "{\"kind\": \"stats\"}\n";
    return os.str();
}

std::string
serveAtJobs(int jobs, std::size_t batch)
{
    svc::ServiceOptions options;
    options.jobs = jobs;
    options.batchCapacity = batch;
    svc::QueryService service(options);
    std::istringstream in(mixedWorkload());
    std::ostringstream out;
    service.serve(in, out);
    return out.str();
}

TEST(SvcService, ServeIsByteIdenticalAcrossJobsAndBatchSizes)
{
    // The ISSUE's acceptance contract: the response stream —
    // including every stats counter — must not depend on the worker
    // count or on how the stream happens to be chopped into batches.
    const std::string serial = serveAtJobs(1, 32);
    EXPECT_NE(serial.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(serial.find("\"status\":\"error\""), std::string::npos);
    for (const int jobs : { 2, 8 })
        EXPECT_EQ(serveAtJobs(jobs, 32), serial) << jobs;
    for (const std::size_t batch : { 1u, 3u, 100u })
        EXPECT_EQ(serveAtJobs(4, batch), serial) << batch;
}

TEST(SvcService, MetricsFileReportsTheRun)
{
    const std::string path =
        testing::TempDir() + "/twocs_svc_metrics_test.json";
    std::remove(path.c_str());
    svc::ServiceOptions options;
    options.metricsPath = path;
    options.batchCapacity = 4;
    svc::QueryService service(options);
    std::istringstream in(mixedWorkload());
    std::ostringstream out;
    service.serve(in, out);

    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << path;
    std::stringstream ss;
    ss << is.rdbuf();
    EXPECT_NE(ss.str().find("\"requests\": 54"), std::string::npos)
        << ss.str();
    EXPECT_NE(ss.str().find("\"hit_rate\": "), std::string::npos);
    EXPECT_NE(ss.str().find("\"latency_seconds_p95\": "),
              std::string::npos);
    EXPECT_NE(ss.str().find("\"batch_size_histogram\": ["),
              std::string::npos);
    EXPECT_NE(ss.str().find("\"size\": 4"), std::string::npos);
    std::remove(path.c_str());

    svc::ServiceOptions bad;
    bad.metricsPath = testing::TempDir() + "/twocs_no_dir/m.json";
    svc::QueryService doomed(bad);
    std::istringstream in2("{\"kind\": \"stats\"}\n");
    std::ostringstream out2;
    EXPECT_THROW(doomed.serve(in2, out2), FatalError);
}

// --- response protocol v2 ---

TEST(SvcProto, V2ErrorsCarryStructuredErrorObject)
{
    svc::QueryService service;
    const std::string parse = service.handle(
        "{\"kind\": \"project\", \"hiden\": 1}");
    EXPECT_NE(parse.find("\"status\":\"error\",\"error\":{"
                         "\"code\":\"parse_error\",\"message\":"),
              std::string::npos)
        << parse;

    // A syntax-level diagnostic names a byte offset; v2 surfaces it
    // as a machine-readable field.
    const std::string syntax = service.handle("{\"kind\" \"x\"}");
    EXPECT_NE(syntax.find("\"code\":\"parse_error\""),
              std::string::npos);
    EXPECT_NE(syntax.find("\"offset\":"), std::string::npos)
        << syntax;

    const std::string eval = service.handle(
        "{\"kind\": \"memory\", \"model\": \"ELIZA\"}");
    EXPECT_NE(eval.find("\"error\":{\"code\":\"eval_error\""),
              std::string::npos)
        << eval;
}

TEST(SvcProto, ErrorOffsetsComeFromTheParserNotTheMessage)
{
    // Diagnostics that echo request text containing "byte N" carry
    // no offset; a syntax error still does.
    svc::QueryService service;
    EXPECT_EQ(service.handle(
                  "{\"id\":1,\"kind\":\"analyze\",\"model\":\"byte 12\"}"),
              "{\"id\":1,\"status\":\"error\",\"error\":{\"code\":"
              "\"eval_error\",\"message\":\"unknown zoo model "
              "'byte 12'\"}}");
    EXPECT_EQ(service.handle("{\"id\":3,\"kind\":\"bogus byte 99\"}", 2),
              "{\"id\":3,\"status\":\"error\",\"error\":{\"code\":"
              "\"parse_error\",\"message\":\"line 2: unknown kind "
              "'bogus byte 99' "
              "(project|analyze|slack|memory|perturb|stats)\"}}");
    EXPECT_EQ(service.handle("{\"kind\" \"x\"}", 3),
              "{\"status\":\"error\",\"error\":{\"code\":"
              "\"parse_error\",\"message\":\"line 3: byte 8: expected "
              "':' after key 'kind'\",\"offset\":8}}");
}

TEST(SvcProto, MalformedNumbersNeverEchoAsInvalidJson)
{
    svc::QueryService service;
    for (const char *line :
         { "{\"id\":01,\"kind\":\"stats\"}", "{\"id\":-0.,\"kind\":\"stats\"}",
           "{\"id\":\"\\q\",\"kind\":\"stats\"}" }) {
        const std::string r = service.handle(line);
        EXPECT_NO_THROW(json::validate(r)) << r;
        EXPECT_EQ(r.rfind("{\"status\":\"error\"", 0), 0u) << r;
    }
}

TEST(SvcProto, V2EchoesRequestIdEvenOnParseErrors)
{
    svc::QueryService service;
    const std::string r = service.handle(
        "{\"id\": 7, \"kind\": \"project\", \"hiden\": 1}");
    EXPECT_EQ(r.rfind("{\"id\":7,\"status\":\"error\"", 0), 0u) << r;
    const std::string s = service.handle(
        "{\"id\": \"req-9\", \"kind\": \"nope\"}");
    EXPECT_EQ(s.rfind("{\"id\":\"req-9\",\"status\":\"error\"", 0),
              0u)
        << s;
}

TEST(SvcProto, V2StatsReportsProtocolVersion)
{
    svc::QueryService service;
    const std::string stats = service.handle("{\"kind\": \"stats\"}");
    EXPECT_NE(stats.find("\"kind\":\"stats\",\"proto\":2,"),
              std::string::npos)
        << stats;
}

TEST(SvcProto, IdTokenExtractionIsBestEffort)
{
    EXPECT_EQ(svc::tryExtractIdJson("{\"id\": 7, \"kind\": 1}"), "7");
    EXPECT_EQ(svc::tryExtractIdJson("{\"id\": \"a b\"}"),
              "\"a b\"");
    EXPECT_EQ(svc::tryExtractIdJson("{\"id\": -12}"), "-12");
    EXPECT_EQ(svc::tryExtractIdJson("{\"kind\": \"stats\"}"), "");
    EXPECT_EQ(svc::tryExtractIdJson("{\"id\""), "");
    EXPECT_EQ(svc::tryExtractIdJson("not json at all"), "");
}

// --- the CLI surface ---

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

std::string
runCli(std::initializer_list<const char *> argv_list)
{
    std::vector<const char *> argv(argv_list);
    const cli::Args args =
        cli::Args::parse(static_cast<int>(argv.size()), argv.data());
    CoutCapture capture;
    EXPECT_EQ(cli::runCommand(args), 0);
    return capture.str();
}

TEST(SvcCli, ServeReadsInputFileIdenticallyAcrossJobs)
{
    const std::string path =
        testing::TempDir() + "/twocs_svc_cli_input.jsonl";
    {
        std::ofstream os(path);
        os << mixedWorkload();
    }
    const std::string serial = runCli(
        { "twocs", "serve", "--input", path.c_str(), "--jobs", "1" });
    EXPECT_NE(serial.find("\"kind\":\"project\""), std::string::npos);
    EXPECT_EQ(runCli({ "twocs", "serve", "--input", path.c_str(),
                       "--jobs", "4", "--batch", "3" }),
              serial);
    std::remove(path.c_str());
}

// --- proto v3: the structured `parallel` object ---

TEST(SvcProtoV3, StructuredParallelObjectParses)
{
    const svc::Query q = svc::parseQuery(
        "{\"kind\": \"project\", \"parallel\": {\"tp\": 8, \"pp\": 4, "
        "\"micro\": 16, \"dp\": 2, \"zero\": 1, \"ep\": 1, "
        "\"sp\": true, \"overlap\": false}}");
    EXPECT_EQ(q.plan.tpDegree, 8);
    EXPECT_EQ(q.plan.ppDegree, 4);
    EXPECT_EQ(q.plan.microBatches, 16);
    EXPECT_EQ(q.plan.dpDegree, 2);
    EXPECT_EQ(q.plan.zeroStage, 1);
    EXPECT_TRUE(q.plan.sequenceParallel);
    EXPECT_FALSE(q.plan.overlapDpComm);
    // The flat mirrors track the plan.
    EXPECT_EQ(q.tpDegree, 8);
    EXPECT_EQ(q.dpDegree, 2);
    EXPECT_TRUE(q.tpSet);
}

TEST(SvcProtoV3, ParseDiagnostics)
{
    // The plan lives only in the structured object: a top-level tp
    // is an unknown field, even next to 'parallel'.
    EXPECT_NE(parseError("{\"kind\": \"analyze\", \"tp\": 8, "
                         "\"parallel\": {\"dp\": 2}}")
                  .find("unknown field 'tp'"),
              std::string::npos);
    // Unknown plan axes are named with the accepted list.
    EXPECT_NE(parseError("{\"kind\": \"project\", \"parallel\": "
                         "{\"tpp\": 8}}")
                  .find("parallel.tpp"),
              std::string::npos);
    // Sub-field diagnostics carry the parallel. prefix.
    EXPECT_NE(parseError("{\"kind\": \"project\", \"parallel\": "
                         "{\"zero\": 9}}")
                  .find("parallel.zero"),
              std::string::npos);
    // 'parallel' is the ONLY field that may nest; anything else
    // keeps the flat-object contract.
    EXPECT_NE(parseError("{\"kind\": \"project\", \"hidden\": "
                         "{\"x\": 1}}")
                  .find("must be a scalar"),
              std::string::npos);
    // No double nesting inside the plan either.
    EXPECT_NE(parseError("{\"kind\": \"project\", \"parallel\": "
                         "{\"tp\": {\"x\": 1}}}")
                  .find("must be a scalar"),
              std::string::npos);
    // Plans do not apply to slack queries.
    EXPECT_NE(parseError("{\"kind\": \"slack\", \"parallel\": "
                         "{\"tp\": 2}}")
                  .find("does not apply"),
              std::string::npos);
}

TEST(SvcProtoV3, NonTrivialPlansShowUpInTheResponse)
{
    svc::QueryService service;
    const std::string plain = service.handle(
        "{\"kind\": \"analyze\", \"model\": \"BERT\", \"parallel\": "
        "{\"tp\": 2}}");
    // tp-only plans keep the exact pre-v3 response shape.
    EXPECT_EQ(plain.find("\"parallel\""), std::string::npos) << plain;

    const std::string lowered = service.handle(
        "{\"kind\": \"analyze\", \"model\": \"BERT\", \"parallel\": "
        "{\"tp\": 2, \"dp\": 4, \"zero\": 2}}");
    EXPECT_NE(lowered.find("\"parallel\":\"tp=2,pp=1,micro=1,dp=4,"
                           "zero=2,ep=1,sp=0,overlap=1\""),
              std::string::npos)
        << lowered;
    EXPECT_NE(lowered.find("\"status\":\"ok\""), std::string::npos);
}

// --- proto-v3 perturb queries ---

/** A perturb request line against the default system. */
std::string
perturbLine(int hidden, int seqlen, int tp, int dp, std::int64_t task,
            double scale)
{
    std::ostringstream os;
    os << "{\"kind\": \"perturb\", \"hidden\": " << hidden
       << ", \"seqlen\": " << seqlen << ", \"parallel\": {\"tp\": "
       << tp << ", \"dp\": " << dp << "}, \"perturb\": {\"task\": "
       << task << ", \"scale\": " << json::number(scale) << "}}";
    return os.str();
}

TEST(SvcPerturb, ResponseMatchesDeltaReplay)
{
    // Every task of a small case-study graph at two scales: the
    // served what-if must equal a direct full replay of the one
    // perturbed (delta) duration, and the base a from-scratch
    // CaseStudy::run.
    core::CaseStudyConfig cfg;
    cfg.hidden = 1024;
    cfg.seqLen = 512;
    cfg.batch = 1;
    cfg.tpDegree = 2;
    cfg.dpDegree = 2;
    const core::CaseStudy study;
    const std::string base_field =
        "\"base_seconds\":" + json::number(study.run(cfg).makespan);
    const std::shared_ptr<const sim::GraphTemplate> graph =
        study.compileGraph(cfg);
    const std::size_t n = graph->numTasks();
    ASSERT_GT(n, 0u);

    svc::QueryService service;
    sim::ReplayScratch oracle;
    std::vector<Seconds> durations = graph->baseDurations();
    for (const double scale : { 0.5, 1.5 }) {
        for (std::size_t t = 0; t < n; ++t) {
            durations[t] = graph->baseDurations()[t] * scale;
            sim::replay(*graph, durations, oracle);
            durations[t] = graph->baseDurations()[t];

            const std::string response = service.handle(perturbLine(
                1024, 512, 2, 2, static_cast<std::int64_t>(t), scale));
            ASSERT_NE(response.find("\"status\":\"ok\""),
                      std::string::npos)
                << response;
            EXPECT_NE(response.find("\"perturbed_seconds\":" +
                                    json::number(oracle.makespan())),
                      std::string::npos)
                << "scale " << scale << " task " << t << ": "
                << response;
            EXPECT_NE(response.find(base_field), std::string::npos)
                << response;
            EXPECT_EQ(response.find("\"cone_"), std::string::npos)
                << response;
            EXPECT_EQ(response.find("full_replay"), std::string::npos)
                << response;
        }
    }
}

TEST(SvcPerturb, GraphResidencyStaysBounded)
{
    // Perturb templates live only in the bounded, process-wide graph
    // cache: more distinct structures than it holds must evict rather
    // than accumulate, and re-serving them (recompiled after
    // eviction) must answer byte-identically.
    sim::GraphCache &cache = sim::GraphCache::instance();
    struct RestoreCapacity
    {
        std::size_t saved;
        ~RestoreCapacity()
        {
            sim::GraphCache::instance().setCapacity(saved);
            sim::GraphCache::instance().clear();
        }
    } restore{ cache.capacity() };
    cache.setCapacity(8);

    std::ostringstream stream;
    for (const int hidden : { 1024, 2048, 4096 })
        for (const int tp : { 2, 4 })
            for (const int dp : { 1, 2 })
                stream << perturbLine(hidden, 512, tp, dp, 3, 1.5)
                       << "\n";

    svc::ServiceOptions options;
    options.cacheCapacity = 0; // every pass re-evaluates
    svc::QueryService service(options);
    std::string passes[2];
    for (std::string &pass : passes) {
        std::istringstream in(stream.str());
        std::ostringstream out;
        service.serve(in, out);
        pass = out.str();
        EXPECT_LE(cache.stats().entries, 8u);
    }
    EXPECT_EQ(passes[0], passes[1]);
    EXPECT_EQ(passes[0].find("\"status\":\"error\""),
              std::string::npos)
        << passes[0];
}

TEST(SvcPerturb, ServeIsByteIdenticalAcrossJobs)
{
    // Repeated structures in one batch evaluate concurrently at
    // --jobs 4, each worker on its own thread-local scratch over a
    // shared cached template (run under TSan by the preset filter).
    std::ostringstream stream;
    for (int round = 0; round < 2; ++round)
        for (const int tp : { 2, 4 })
            for (const std::int64_t task : { 0, 5, 17, 40, 1000000 })
                for (const double scale : { 0.5, 1.5, 2.0 })
                    stream << perturbLine(2048, 512, tp, 1, task, scale)
                           << "\n";
    stream << "{\"kind\": \"stats\"}\n";

    const auto serveAt = [&](int jobs) {
        svc::ServiceOptions options;
        options.jobs = jobs;
        options.cacheCapacity = 16; // hits, misses and evictions
        svc::QueryService service(options);
        std::istringstream in(stream.str());
        std::ostringstream out;
        service.serve(in, out);
        return out.str();
    };
    const std::string serial = serveAt(1);
    EXPECT_NE(serial.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(serial.find("\"status\":\"error\""), std::string::npos);
    EXPECT_EQ(serveAt(4), serial);
}

TEST(SvcPerturb, ParseDiagnostics)
{
    // kind 'perturb' requires the structured object...
    EXPECT_NE(parseError("{\"kind\": \"perturb\"}").find("perturb"),
              std::string::npos);
    // ...and replays the tp/dp case-study graph only.
    EXPECT_NE(parseError("{\"kind\": \"perturb\", \"perturb\": "
                         "{\"task\": 0}, \"parallel\": "
                         "{\"tp\": 8, \"pp\": 4}}")
                  .find("tp/dp"),
              std::string::npos);
}

TEST(SvcPerturb, OutOfRangeTaskIsAnInlineEvalError)
{
    svc::QueryService service;
    const std::string response = service.handle(
        "{\"kind\": \"perturb\", \"perturb\": {\"task\": 1000000, "
        "\"scale\": 1.5}}");
    EXPECT_NE(response.find("\"status\":\"error\""),
              std::string::npos)
        << response;
}

TEST(SvcCli, ServeRejectsBadFlagsAndMissingInput)
{
    auto rc = [](std::initializer_list<const char *> argv_list) {
        std::vector<const char *> argv(argv_list);
        const cli::Args args = cli::Args::parse(
            static_cast<int>(argv.size()), argv.data());
        CoutCapture capture;
        return cli::runCommand(args);
    };
    EXPECT_THROW(rc({ "twocs", "serve", "--input",
                      "/definitely/not/here.jsonl" }),
                 FatalError);
    EXPECT_THROW(rc({ "twocs", "serve", "--cache-capacity", "-1" }),
                 FatalError);
    EXPECT_THROW(rc({ "twocs", "serve", "--batch", "0" }),
                 FatalError);
}

} // namespace
} // namespace twocs
