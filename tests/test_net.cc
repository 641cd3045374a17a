/**
 * @file
 * Tests for the network front-end (src/net): incremental line
 * framing under split/coalesced packets and the max-line-bytes cap,
 * the bounded mailbox, deterministic admission/shedding, canonical
 * sharding, the framed stream backend's byte-identity with the
 * classic serve loop, and loopback end-to-end behavior of the epoll
 * server — byte-identity with the stdin path, slow-reader
 * backpressure, load shedding, and graceful drain.
 */

#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/client.hh"
#include "net/framer.hh"
#include "net/mailbox.hh"
#include "net/server.hh"
#include "net/shard.hh"
#include "net/stream.hh"
#include "svc/service.hh"
#include "util/logging.hh"

namespace twocs {
namespace {

// --- framing ---

std::vector<net::Frame>
popAll(net::LineFramer &framer)
{
    std::vector<net::Frame> frames;
    net::Frame f;
    while (framer.pop(f))
        frames.push_back(std::move(f));
    return frames;
}

TEST(NetFramer, SplitAcrossFeedsReassembles)
{
    net::LineFramer framer;
    framer.feed("{\"kind\": \"sta", 13);
    EXPECT_TRUE(popAll(framer).empty());
    framer.feed("ts\"}\n", 5);
    const auto frames = popAll(framer);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].kind, net::Frame::Kind::Line);
    EXPECT_EQ(frames[0].text, "{\"kind\": \"stats\"}");
}

TEST(NetFramer, CoalescedLinesInOneFeed)
{
    net::LineFramer framer;
    const std::string chunk = "one\ntwo\nthree\nfour";
    framer.feed(chunk.data(), chunk.size());
    const auto frames = popAll(framer);
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0].text, "one");
    EXPECT_EQ(frames[1].text, "two");
    EXPECT_EQ(frames[2].text, "three");
    EXPECT_EQ(framer.pendingBytes(), 4u);
}

TEST(NetFramer, CrLfTerminatorsAreOneLineBreak)
{
    net::LineFramer framer;
    const std::string chunk = "alpha\r\nbeta\r\n";
    framer.feed(chunk.data(), chunk.size());
    const auto frames = popAll(framer);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].text, "alpha");
    EXPECT_EQ(frames[1].text, "beta");
}

TEST(NetFramer, FinishFlushesTheUnterminatedTail)
{
    net::LineFramer framer;
    framer.feed("a\nlast", 6);
    net::Frame f;
    ASSERT_TRUE(framer.finish(f));
    EXPECT_EQ(f.text, "a");
    ASSERT_TRUE(framer.finish(f));
    EXPECT_EQ(f.text, "last");
    EXPECT_FALSE(framer.finish(f));
}

TEST(NetFramer, OverlongLineDiscardsIncrementallyAndResyncs)
{
    net::LineFramer framer(8);
    // 20 bytes arrive in dribs; the framer must never buffer more
    // than the cap while the line is being discarded.
    for (int i = 0; i < 20; ++i) {
        framer.feed("x", 1);
        EXPECT_LE(framer.pendingBytes(), 8u);
    }
    EXPECT_TRUE(framer.discarding());
    framer.feed("\nok\n", 4);
    const auto frames = popAll(framer);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].kind, net::Frame::Kind::Overlong);
    EXPECT_EQ(frames[0].droppedBytes, 20u);
    EXPECT_EQ(frames[1].kind, net::Frame::Kind::Line);
    EXPECT_EQ(frames[1].text, "ok");
}

TEST(NetFramer, OverlongTailWithoutNewlineStillReports)
{
    net::LineFramer framer(4);
    framer.feed("toolong", 7);
    net::Frame f;
    ASSERT_TRUE(framer.finish(f));
    EXPECT_EQ(f.kind, net::Frame::Kind::Overlong);
    EXPECT_EQ(f.droppedBytes, 7u);
}

TEST(NetFramer, ExactlyAtCapIsNotOverlong)
{
    net::LineFramer framer(4);
    framer.feed("abcd\n", 5);
    const auto frames = popAll(framer);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].kind, net::Frame::Kind::Line);
    EXPECT_EQ(frames[0].text, "abcd");
}

// --- mailbox ---

TEST(NetMailbox, BoundsAndHighWater)
{
    net::Mailbox<int> box(2);
    int v = 1;
    EXPECT_TRUE(box.tryPush(std::move(v)));
    v = 2;
    EXPECT_TRUE(box.tryPush(std::move(v)));
    v = 3;
    EXPECT_FALSE(box.tryPush(std::move(v)));
    EXPECT_EQ(v, 3); // a failed push must not consume the item
    EXPECT_EQ(box.size(), 2u);
    EXPECT_EQ(box.highWater(), 2u);
}

TEST(NetMailbox, StealOldestIsFifo)
{
    net::Mailbox<int> box(3);
    for (int i = 1; i <= 3; ++i) {
        int v = i;
        EXPECT_TRUE(box.tryPush(std::move(v)));
    }
    const auto stolen = box.stealOldest();
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(*stolen, 1);
    EXPECT_EQ(box.size(), 2u);
}

TEST(NetMailbox, CloseRefusesPushesButDrainsPops)
{
    net::Mailbox<int> box(4);
    int v = 7;
    EXPECT_TRUE(box.tryPush(std::move(v)));
    box.close();
    v = 8;
    EXPECT_FALSE(box.tryPush(std::move(v)));
    int out = 0;
    EXPECT_TRUE(box.popWait(out)); // admitted work still delivers
    EXPECT_EQ(out, 7);
    EXPECT_FALSE(box.popWait(out)); // closed && empty terminates
}

TEST(NetMailbox, PopWaitBlocksUntilPush)
{
    net::Mailbox<int> box(1);
    std::thread producer([&box] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        int v = 42;
        box.tryPush(std::move(v));
    });
    int out = 0;
    EXPECT_TRUE(box.popWait(out));
    EXPECT_EQ(out, 42);
    producer.join();
}

// --- admission / shedding ---

net::Envelope
envelopeOf(std::uint64_t seq)
{
    net::Envelope env;
    env.seq = seq;
    env.line = "line-" + std::to_string(seq);
    return env;
}

TEST(NetAdmission, RejectPolicyShedsTheNewcomer)
{
    net::Mailbox<net::Envelope> box(2);
    for (std::uint64_t s = 0; s < 2; ++s) {
        const auto r = net::admitOrShed(
            box, net::ShedPolicy::Reject, envelopeOf(s));
        EXPECT_EQ(r.outcome, net::Admit::Enqueued);
        EXPECT_FALSE(r.shed.has_value());
    }
    const auto r = net::admitOrShed(box, net::ShedPolicy::Reject,
                                    envelopeOf(2));
    EXPECT_EQ(r.outcome, net::Admit::ShedNew);
    ASSERT_TRUE(r.shed.has_value());
    EXPECT_EQ(r.shed->seq, 2u); // the newcomer pays
    EXPECT_EQ(box.size(), 2u);
}

TEST(NetAdmission, OldestPolicyEvictsTheQueueHead)
{
    net::Mailbox<net::Envelope> box(2);
    (void)net::admitOrShed(box, net::ShedPolicy::Oldest,
                           envelopeOf(0));
    (void)net::admitOrShed(box, net::ShedPolicy::Oldest,
                           envelopeOf(1));
    const auto r = net::admitOrShed(box, net::ShedPolicy::Oldest,
                                    envelopeOf(2));
    EXPECT_EQ(r.outcome, net::Admit::ShedOldest);
    ASSERT_TRUE(r.shed.has_value());
    EXPECT_EQ(r.shed->seq, 0u); // the head pays
    // Queue is now {1, 2}: the newcomer took the freed slot.
    const auto head = box.stealOldest();
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->seq, 1u);
    const auto next = box.stealOldest();
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->seq, 2u);
}

TEST(NetAdmission, SequenceIsDeterministic)
{
    // Same arrival sequence, same decisions — run it twice.
    for (int round = 0; round < 2; ++round) {
        net::Mailbox<net::Envelope> box(1);
        std::vector<net::Admit> outcomes;
        for (std::uint64_t s = 0; s < 4; ++s) {
            outcomes.push_back(
                net::admitOrShed(box, net::ShedPolicy::Oldest,
                                 envelopeOf(s))
                    .outcome);
        }
        EXPECT_EQ(outcomes,
                  (std::vector<net::Admit>{
                      net::Admit::Enqueued, net::Admit::ShedOldest,
                      net::Admit::ShedOldest,
                      net::Admit::ShedOldest }));
    }
}

TEST(NetAdmission, ClosedMailboxShedsEverything)
{
    net::Mailbox<net::Envelope> box(4);
    box.close();
    const auto r = net::admitOrShed(box, net::ShedPolicy::Oldest,
                                    envelopeOf(0));
    EXPECT_EQ(r.outcome, net::Admit::ShedNew);
}

TEST(NetAdmission, ShedPolicyNamesRoundTrip)
{
    EXPECT_EQ(net::shedPolicyFromName("reject"),
              net::ShedPolicy::Reject);
    EXPECT_EQ(net::shedPolicyFromName("oldest"),
              net::ShedPolicy::Oldest);
    EXPECT_STREQ(net::shedPolicyName(net::ShedPolicy::Reject),
                 "reject");
    EXPECT_STREQ(net::shedPolicyName(net::ShedPolicy::Oldest),
                 "oldest");
    EXPECT_THROW((void)net::shedPolicyFromName("newest"),
                 FatalError);
}

// --- shard pool ---

const char *kProjectA =
    "{\"kind\": \"project\", \"hidden\": 4096, "
    "\"parallel\": {\"tp\": 8}}";
const char *kProjectB =
    "{\"kind\": \"project\", \"hidden\": 8192, "
    "\"parallel\": {\"tp\": 16}}";

TEST(NetShardPool, RoutingIsStableAndStatsPinsToShardZero)
{
    net::ShardPoolOptions options;
    options.shards = 4;
    net::ShardPool pool(std::move(options),
                        [](net::Envelope &&, std::string &&) {});
    const int a = pool.shardOf(kProjectA);
    EXPECT_EQ(a, pool.shardOf(kProjectA)); // same key, same shard
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
    EXPECT_EQ(pool.shardOf("{\"kind\": \"stats\"}"), 0);
}

TEST(NetShardPool, RepliesMatchTheServicePath)
{
    std::mutex mutex;
    std::vector<std::pair<std::uint64_t, std::string>> replies;
    net::ShardPoolOptions options;
    options.shards = 3;
    net::ShardPool pool(
        std::move(options),
        [&](net::Envelope &&env, std::string &&response) {
            std::lock_guard<std::mutex> lock(mutex);
            replies.emplace_back(env.seq, std::move(response));
        });

    const std::vector<std::string> lines = { kProjectA, kProjectB,
                                             kProjectA };
    for (std::uint64_t s = 0; s < lines.size(); ++s) {
        net::Envelope env;
        env.seq = s;
        env.lineNo = s + 1;
        env.line = lines[s];
        EXPECT_EQ(pool.submit(std::move(env)),
                  net::Admit::Enqueued);
    }
    pool.drain();

    ASSERT_EQ(replies.size(), 3u);
    std::sort(replies.begin(), replies.end());
    svc::QueryService reference;
    for (const auto &[seq, response] : replies) {
        EXPECT_EQ(response,
                  reference.handle(lines[seq], seq + 1))
            << "seq " << seq;
    }
}

TEST(NetShardPool, OverloadedResponseIsStructured)
{
    net::ShardPoolOptions options;
    options.shards = 1;
    options.retryAfterMs = 75;
    net::ShardPool pool(std::move(options),
                        [](net::Envelope &&, std::string &&) {});
    const std::string response = pool.overloadedResponse(
        "{\"id\": 9, \"kind\": \"stats\"}");
    EXPECT_NE(response.find("\"id\":9"), std::string::npos);
    EXPECT_NE(response.find("\"status\":\"error\""),
              std::string::npos);
    EXPECT_NE(response.find("\"code\":\"overloaded\""),
              std::string::npos);
    EXPECT_NE(response.find("\"retry_after_ms\":75"),
              std::string::npos);
}

TEST(NetShardPool, FoldMetricsAggregatesShards)
{
    std::mutex mutex;
    int delivered = 0;
    net::ShardPoolOptions options;
    options.shards = 2;
    net::ShardPool pool(std::move(options),
                        [&](net::Envelope &&, std::string &&) {
                            std::lock_guard<std::mutex> lock(mutex);
                            ++delivered;
                        });
    for (std::uint64_t s = 0; s < 6; ++s) {
        net::Envelope env;
        env.seq = s;
        env.lineNo = s + 1;
        env.line = s % 2 == 0 ? kProjectA : kProjectB;
        pool.submit(std::move(env));
    }
    pool.drain();
    EXPECT_EQ(delivered, 6);
    svc::ServiceMetrics merged;
    pool.foldMetrics(merged);
    EXPECT_EQ(merged.requests(), 6u);
    EXPECT_GE(merged.queueDepthHighWater(), 1u);
}

// --- the framed stream backend (stdin path) ---

std::string
requestStream()
{
    std::ostringstream os;
    os << kProjectA << "\n";
    os << "\n"; // blank line: skipped but counted
    os << kProjectB << "\n";
    os << "not json at all\n";
    os << kProjectA << "\n"; // cache hit
    os << "{\"kind\": \"nope\"}\n";
    return os.str();
}

TEST(NetStream, ByteIdenticalWithClassicServe)
{
    const std::string input = requestStream();

    svc::QueryService classic;
    std::istringstream cin(input);
    std::ostringstream cout;
    classic.serve(cin, cout);

    svc::QueryService framed;
    std::istringstream fin(input);
    std::ostringstream fout;
    const net::StreamStats stats = net::serveStream(
        framed, fin, fout, net::LineFramer::kDefaultMaxLineBytes);

    EXPECT_EQ(fout.str(), cout.str());
    EXPECT_EQ(stats.lines, 6u);
    EXPECT_EQ(stats.overlongLines, 0u);
}

TEST(NetStream, UnterminatedFinalLineStillAnswers)
{
    const std::string input =
        std::string(kProjectA) + "\n" + kProjectB; // no final \n

    svc::QueryService classic;
    std::istringstream cin(input);
    std::ostringstream cout;
    classic.serve(cin, cout);

    svc::QueryService framed;
    std::istringstream fin(input);
    std::ostringstream fout;
    (void)net::serveStream(framed, fin, fout,
                           net::LineFramer::kDefaultMaxLineBytes);
    EXPECT_EQ(fout.str(), cout.str());
}

TEST(NetStream, OverlongLineAnswersInArrivalOrderAndResyncs)
{
    std::ostringstream in;
    in << kProjectA << "\n";
    in << std::string(300, 'x') << "\n";
    in << kProjectB << "\n";

    svc::QueryService service;
    std::istringstream is(in.str());
    std::ostringstream os;
    const net::StreamStats stats =
        net::serveStream(service, is, os, 128);
    EXPECT_EQ(stats.overlongLines, 1u);

    std::istringstream lines(os.str());
    std::string first, second, third;
    ASSERT_TRUE(std::getline(lines, first));
    ASSERT_TRUE(std::getline(lines, second));
    ASSERT_TRUE(std::getline(lines, third));
    EXPECT_NE(first.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(second.find("\"code\":\"line_too_long\""),
              std::string::npos);
    EXPECT_NE(second.find("line 2"), std::string::npos);
    EXPECT_NE(second.find("300 bytes"), std::string::npos);
    EXPECT_NE(third.find("\"status\":\"ok\""), std::string::npos);
}

TEST(NetStream, OverlongResponseLineShapePerProto)
{
    // One response protocol: the structured error object, no id.
    EXPECT_EQ(net::overlongResponseLine(3, 500, 128),
              "{\"status\":\"error\",\"error\":{\"code\":"
              "\"line_too_long\",\"message\":\"line 3: request line "
              "of 500 bytes exceeds --max-line-bytes 128; dropped to "
              "the next newline\"}}");
}

// --- loopback end-to-end ---

net::ServerOptions
serverOptionsOf(int shards)
{
    net::ServerOptions options;
    options.shards = shards;
    return options;
}

std::string
roundTrip(net::Server &server, const std::string &input)
{
    net::BlockingClient client(server.port());
    client.sendAll(input);
    client.shutdownWrite();
    return client.drainAll();
}

TEST(NetServer, LoopbackByteIdentityWithStdinPathAcrossShards)
{
    const std::string input = requestStream();
    svc::QueryService reference;
    std::istringstream rin(input);
    std::ostringstream rout;
    reference.serve(rin, rout);

    for (const int shards : { 1, 3 }) {
        net::Server server(serverOptionsOf(shards));
        server.start();
        const std::string out = roundTrip(server, input);
        server.stop();
        server.join();
        EXPECT_EQ(out, rout.str()) << "shards=" << shards;
    }
}

TEST(NetServer, SplitAndCoalescedPacketsBothWork)
{
    const std::string input = requestStream();
    svc::QueryService reference;
    std::istringstream rin(input);
    std::ostringstream rout;
    reference.serve(rin, rout);

    net::Server server(serverOptionsOf(2));
    server.start();
    {
        // Dribble the stream a few bytes at a time (worst-case
        // packet splits), then everything at once on a second
        // connection (worst-case coalescing).
        net::BlockingClient dribble(server.port());
        for (std::size_t i = 0; i < input.size(); i += 7)
            dribble.sendAll(input.substr(i, 7));
        dribble.shutdownWrite();
        EXPECT_EQ(dribble.drainAll(), rout.str());

        net::BlockingClient burst(server.port());
        burst.sendAll(input);
        burst.shutdownWrite();
        EXPECT_EQ(burst.drainAll(), rout.str());
    }
    server.stop();
    server.join();
    EXPECT_EQ(server.stats().accepted, 2u);
}

TEST(NetServer, OverlongLineOverSocketMatchesStreamPath)
{
    std::ostringstream in;
    in << kProjectA << "\n";
    in << std::string(300, 'x') << "\n";
    in << kProjectB << "\n";

    svc::QueryService service;
    std::istringstream sis(in.str());
    std::ostringstream sos;
    (void)net::serveStream(service, sis, sos, 128);

    net::ServerOptions options = serverOptionsOf(1);
    options.maxLineBytes = 128;
    net::Server server(std::move(options));
    server.start();
    const std::string out = roundTrip(server, in.str());
    server.stop();
    server.join();
    EXPECT_EQ(out, sos.str());
    EXPECT_EQ(server.stats().overlongLines, 1u);
}

TEST(NetServer, TinyQueueShedsButAnswersEveryRequest)
{
    net::ServerOptions options = serverOptionsOf(1);
    options.queueDepth = 1;
    options.service.jobs = 1;
    net::Server server(std::move(options));
    server.start();

    constexpr int kRequests = 200;
    net::BlockingClient client(server.port());
    std::ostringstream batch;
    for (int i = 0; i < kRequests; ++i)
        batch << "{\"id\": " << i
              << ", \"kind\": \"project\", \"ground_truth\": true, "
                 "\"hidden\": "
              << 1024 + 128 * (i % 16) << "}\n";
    client.sendAll(batch.str());
    client.shutdownWrite();
    const std::string out = client.drainAll();
    server.stop();
    server.join();

    std::istringstream lines(out);
    std::string line;
    int responses = 0;
    int overloaded = 0;
    while (std::getline(lines, line)) {
        ++responses;
        if (line.find("\"code\":\"overloaded\"") !=
            std::string::npos) {
            ++overloaded;
            EXPECT_NE(line.find("\"retry_after_ms\":"),
                      std::string::npos);
        }
    }
    EXPECT_EQ(responses, kRequests); // shed or computed, never lost
    EXPECT_GT(overloaded, 0);
    EXPECT_EQ(server.stats().sheds,
              static_cast<std::uint64_t>(overloaded));
}

TEST(NetServer, SlowReaderIsBackpressuredNotBuffered)
{
    net::ServerOptions options = serverOptionsOf(1);
    options.writeHighWater = 4096;  // pause early
    options.sendBufferBytes = 8192; // and hit EAGAIN early
    net::Server server(std::move(options));
    server.start();

    net::BlockingClient client(server.port());
    std::string batch;
    constexpr int kBatch = 50;
    for (int i = 0; i < kBatch; ++i)
        batch += std::string(kProjectA) + "\n";

    // Keep sending, never reading, until the server pauses reads.
    // The server only checks its write backlog when input arrives,
    // and never pauses a peer that has shut down its write side, so
    // a one-shot send followed by a wait races the answers against
    // the reads: under load every request was read before the
    // backlog built up. Small batches bound what is in flight once
    // reads pause, so the blocking send cannot wedge.
    int sent = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().readPauses == 0 &&
           std::chrono::steady_clock::now() < deadline) {
        client.sendAll(batch);
        sent += kBatch;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.shutdownWrite();

    const std::string out = client.drainAll();
    server.stop();
    server.join();
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), sent);
    EXPECT_GT(server.stats().readPauses, 0u);
}

TEST(NetServer, GracefulDrainAnswersAdmittedWorkThenCloses)
{
    net::ServerOptions options = serverOptionsOf(2);
    net::Server server(std::move(options));
    server.start();

    net::BlockingClient client(server.port());
    constexpr int kRequests = 50;
    for (int i = 0; i < kRequests; ++i)
        client.sendLine(kProjectA);
    std::string response;
    for (int i = 0; i < kRequests; ++i)
        ASSERT_TRUE(client.recvLine(response)) << "response " << i;

    // Every request is answered; now ask for the drain. The server
    // must close the (idle) connection and run() must return.
    server.stop();
    EXPECT_EQ(client.drainAll(), ""); // clean EOF, no stray bytes
    server.join();

    const svc::ServiceMetrics merged = server.aggregatedMetrics();
    EXPECT_EQ(merged.requests(),
              static_cast<std::uint64_t>(kRequests));
    EXPECT_EQ(merged.connectionsOpened(), 1u);

    // A drain that races in-flight requests still answers whatever
    // was admitted — exercised separately: admit, stop immediately,
    // and require every response that does arrive to be well-formed
    // and the connection to close.
    net::ServerOptions raceOptions = serverOptionsOf(2);
    net::Server racing(std::move(raceOptions));
    racing.start();
    net::BlockingClient burst(racing.port());
    for (int i = 0; i < kRequests; ++i)
        burst.sendLine(kProjectA);
    racing.stop();
    const std::string out = burst.drainAll(); // EOF must arrive
    racing.join();
    EXPECT_LE(std::count(out.begin(), out.end(), '\n'), kRequests);
    EXPECT_EQ(racing.stats().requests, racing.stats().responses);
}

TEST(NetServer, StatsAndMetricsSurfaceNetCounters)
{
    net::ServerOptions options = serverOptionsOf(2);
    net::Server server(std::move(options));
    server.start();
    {
        net::BlockingClient client(server.port());
        client.sendLine(kProjectA);
        std::string response;
        ASSERT_TRUE(client.recvLine(response));
        EXPECT_NE(response.find("\"status\":\"ok\""),
                  std::string::npos);
    }
    server.stop();
    server.join();

    const net::ServerStats stats = server.stats();
    EXPECT_EQ(stats.accepted, 1u);
    EXPECT_EQ(stats.requests, 1u);
    EXPECT_EQ(stats.responses, 1u);

    std::ostringstream json;
    server.aggregatedMetrics().writeJson(json);
    EXPECT_NE(json.str().find("\"sheds\""), std::string::npos);
    EXPECT_NE(json.str().find("\"queue_depth_high_water\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"connections_opened\""),
              std::string::npos);
}

} // namespace
} // namespace twocs
