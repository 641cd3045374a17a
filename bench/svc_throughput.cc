/**
 * @file
 * Throughput bench of the projection query service (src/svc).
 *
 * Replays a Zipf-skewed workload over the 196 Table 3 serialized
 * configurations — skew means a popular head of configurations
 * repeats often, the realistic shape for a design-space service —
 * at --jobs 1/2/4 and reports QPS and cache hit rate per job count.
 * Each job count replays the stream on a fresh service over and over
 * for a fixed wall-time window and keeps its fastest pass, so one
 * noisy pass does not set the number.
 * Queries use "ground_truth": true (full simulated iterations), the
 * heavyweight path, so the per-miss work is large enough for the
 * fan-out to matter. The responses are also compared across job
 * counts to demonstrate the byte-identical determinism contract on
 * a nontrivial stream.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "core/sweep.hh"
#include "net/client.hh"
#include "net/framer.hh"
#include "net/server.hh"
#include "net/stream.hh"
#include "svc/service.hh"
#include "util/rng.hh"

using namespace twocs;

namespace {

/**
 * Render the Zipf-sampled request stream: `requests` lines drawn
 * from the 196 configs with P(rank r) ~ 1/r^s.
 */
std::string
makeWorkload(std::size_t requests, double skew, std::uint64_t seed)
{
    const std::vector<core::SerializedConfig> configs =
        core::serializedConfigs(core::table3());

    std::vector<double> cdf(configs.size());
    double mass = 0.0;
    for (std::size_t r = 0; r < configs.size(); ++r) {
        mass += 1.0 / std::pow(static_cast<double>(r + 1), skew);
        cdf[r] = mass;
    }

    Rng rng(seed);
    std::ostringstream os;
    for (std::size_t i = 0; i < requests; ++i) {
        const double u = rng.nextDouble() * mass;
        std::size_t r = 0;
        while (r + 1 < cdf.size() && cdf[r] < u)
            ++r;
        const core::SerializedConfig &c = configs[r];
        os << "{\"kind\": \"project\", \"ground_truth\": true"
           << ", \"hidden\": " << c.hidden
           << ", \"seqlen\": " << c.seqLen
           << ", \"parallel\": {\"tp\": " << c.tpDegree << "}}\n";
    }
    return os.str();
}

struct RunResult
{
    double qps = 0.0;
    double hitRate = 0.0;
    std::string responses;
};

/** One replay of `workload` through a fresh service (cold cache). */
RunResult
replayOnce(const std::string &workload, int jobs)
{
    svc::ServiceOptions options;
    options.jobs = jobs;
    svc::QueryService service(options);

    std::istringstream in(workload);
    std::ostringstream out;
    const auto start = std::chrono::steady_clock::now();
    net::serveStream(service, in, out,
                     net::LineFramer::kDefaultMaxLineBytes);
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    RunResult result;
    result.qps =
        static_cast<double>(service.metrics().value("requests")) /
        seconds;
    result.hitRate = service.metrics().ratioValue("hit_rate");
    result.responses = out.str();
    return result;
}

/** The first pass's result with the best QPS of back-to-back
 *  passes, repeated until kMeasureWindow of wall time has passed.
 *  Every pass starts cold, so each has the same hit rate. */
RunResult
replay(const std::string &workload, int jobs)
{
    using Clock = std::chrono::steady_clock;
    constexpr std::chrono::milliseconds kMeasureWindow(1000);
    RunResult best = replayOnce(workload, jobs);
    const auto window_start = Clock::now();
    while (Clock::now() - window_start < kMeasureWindow)
        best.qps = std::max(best.qps, replayOnce(workload, jobs).qps);
    return best;
}

/** Split one rendered workload back into request lines. */
std::vector<std::string>
splitLines(const std::string &workload)
{
    std::vector<std::string> lines;
    std::istringstream is(workload);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

bool
isOverloaded(const std::string &response)
{
    return response.find("\"code\":\"overloaded\"") !=
           std::string::npos;
}

struct NetRunResult
{
    double qpsSustained = 0.0;
    double p99Ms = 0.0;
    double shedRate = 0.0;
    std::size_t responses = 0;
    std::size_t sheds = 0;
};

/**
 * Open-loop offered load over loopback TCP: each connection sends
 * its slice of the workload on a fixed schedule (offered QPS split
 * across connections) regardless of response progress — the
 * closed-loop coordination that hides queueing is absent, so p99
 * reflects what a real open client population would see. Replies
 * come back FIFO per connection, so latency pairing is a deque of
 * send timestamps.
 */
NetRunResult
runOpenLoop(const std::vector<std::string> &lines, int port,
            double offeredQps, int connections)
{
    using Clock = std::chrono::steady_clock;
    std::mutex mutex; // guards the shared latency/shed tallies
    std::vector<double> latenciesMs;
    std::size_t sheds = 0;
    std::size_t responses = 0;
    Clock::time_point lastResponse = Clock::now();

    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
            net::BlockingClient client(port);
            std::mutex sentMutex;
            std::deque<Clock::time_point> sent;

            std::thread reader([&] {
                std::string response;
                while (client.recvLine(response)) {
                    const auto now = Clock::now();
                    Clock::time_point sendTime;
                    {
                        std::lock_guard<std::mutex> lock(sentMutex);
                        sendTime = sent.front();
                        sent.pop_front();
                    }
                    const double ms =
                        std::chrono::duration<double, std::milli>(
                            now - sendTime)
                            .count();
                    std::lock_guard<std::mutex> lock(mutex);
                    latenciesMs.push_back(ms);
                    ++responses;
                    if (isOverloaded(response))
                        ++sheds;
                    lastResponse = now;
                }
            });

            // This connection owns every `connections`-th request,
            // each due at its open-loop slot on the shared clock.
            for (std::size_t i = static_cast<std::size_t>(c);
                 i < lines.size();
                 i += static_cast<std::size_t>(connections)) {
                const auto due =
                    start + std::chrono::duration_cast<
                                Clock::duration>(
                                std::chrono::duration<double>(
                                    static_cast<double>(i) /
                                    offeredQps));
                std::this_thread::sleep_until(due);
                {
                    std::lock_guard<std::mutex> lock(sentMutex);
                    sent.push_back(Clock::now());
                }
                client.sendLine(lines[i]);
            }
            client.shutdownWrite();
            reader.join();
        });
    }
    for (std::thread &t : threads)
        t.join();

    NetRunResult result;
    result.responses = responses;
    result.sheds = sheds;
    const double seconds =
        std::chrono::duration<double>(lastResponse - start).count();
    result.qpsSustained =
        seconds > 0.0 ? static_cast<double>(responses) / seconds
                      : 0.0;
    result.shedRate =
        responses > 0
            ? static_cast<double>(sheds) /
                  static_cast<double>(responses)
            : 0.0;
    if (!latenciesMs.empty()) {
        std::sort(latenciesMs.begin(), latenciesMs.end());
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(0.99 *
                      static_cast<double>(latenciesMs.size()))) -
            1;
        result.p99Ms = latenciesMs[rank];
    }
    return result;
}

/**
 * `--connect PORT` saturation driver (the CI loopback smoke): blast
 * the workload at an already-running server as fast as the socket
 * accepts, then report how many responses were `overloaded`.
 */
int
runSaturationDriver(int port, std::size_t requests)
{
    const std::vector<std::string> lines =
        splitLines(makeWorkload(requests, 1.1, 0x5eed));
    net::BlockingClient client(port);
    std::size_t sheds = 0;
    std::size_t responses = 0;
    std::thread reader([&] {
        std::string response;
        while (client.recvLine(response)) {
            ++responses;
            if (isOverloaded(response))
                ++sheds;
        }
    });
    for (const std::string &line : lines)
        client.sendLine(line);
    client.shutdownWrite();
    reader.join();
    std::printf("connect driver: responses=%zu overloaded=%zu\n",
                responses, sheds);
    return responses == requests ? 0 : 1;
}

/** Scan argv for `--flag value`; fallback when absent. */
long
argValue(int argc, char **argv, const char *flag, long fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], flag) == 0)
            return std::strtol(argv[i + 1], nullptr, 10);
    }
    return fallback;
}

} // namespace

int
main(int argc, char **argv)
{
    if (const long port = argValue(argc, argv, "--connect", -1);
        port >= 0) {
        const long requests =
            argValue(argc, argv, "--requests", 2000);
        return runSaturationDriver(
            static_cast<int>(port),
            static_cast<std::size_t>(requests));
    }
    const exec::RunnerOptions opts = bench::runnerOptions(
        argc, argv, "svc_throughput");
    (void)opts; // jobs are swept explicitly below
    obs::TraceSession trace(bench::traceOptions(argc, argv));
    bench::BenchJson json("svc_throughput",
                          bench::benchJsonPath(argc, argv));

    bench::banner("svc_throughput",
                  "query service QPS under a Zipf workload");

    constexpr std::size_t kRequests = 1000;
    constexpr double kSkew = 1.1;
    const std::string workload =
        makeWorkload(kRequests, kSkew, 0x5eed);

    const std::vector<int> jobCounts = { 1, 2, 4 };
    std::vector<RunResult> results;
    TextTable t({ "jobs", "QPS", "hit rate", "speedup vs 1" });
    for (const int jobs : jobCounts) {
        results.push_back(replay(workload, jobs));
        const RunResult &r = results.back();
        t.addRowOf(jobs, r.qps, formatPercent(r.hitRate),
                   r.qps / results.front().qps);
    }
    t.print(std::cout);

    const unsigned cores = std::thread::hardware_concurrency();
    std::cout << "(" << kRequests << " requests over 196 configs, "
              << "Zipf s=" << kSkew << ", ground-truth evaluation, "
              << "fastest pass of 1 s of repeats; " << cores
              << " hardware threads)\n";

    bool identical = true;
    for (const RunResult &r : results)
        identical = identical &&
                    r.responses == results.front().responses;
    bench::checkClaim("responses byte-identical at jobs 1/2/4",
                      identical);
    bench::checkBand("cache hit rate under Zipf skew",
                     results.front().hitRate, 0.3, 1.0);
    // The scaling claim needs real cores; on a 1-2 core box this
    // prints WARN, which is honest rather than wrong.
    bench::checkClaim("jobs 4 achieves >= 2x QPS of jobs 1",
                      results.back().qps >= 2.0 * results.front().qps);

    // --- open-loop offered load over loopback TCP ----------------
    constexpr double kOfferedQps = 1500.0;
    constexpr int kConnections = 4;
    constexpr std::size_t kNetRequests = 600;

    net::ServerOptions serverOptions;
    serverOptions.shards = 4;
    serverOptions.queueDepth = 64;
    serverOptions.service.jobs = 1; // shards are the parallelism
    net::Server server(std::move(serverOptions));
    server.start();
    const NetRunResult net = runOpenLoop(
        splitLines(makeWorkload(kNetRequests, kSkew, 0x5eed)),
        server.port(), kOfferedQps, kConnections);
    server.stop();
    server.join();

    TextTable nt({ "offered QPS", "sustained QPS", "p99 ms",
                   "shed rate" });
    nt.addRowOf(kOfferedQps, net.qpsSustained, net.p99Ms,
                formatPercent(net.shedRate));
    nt.print(std::cout);
    std::cout << "(" << kNetRequests << " requests over "
              << kConnections << " loopback connections, "
              << serverOptions.shards << " shards, queue depth "
              << serverOptions.queueDepth << ")\n";
    bench::checkClaim(
        "every offered request was answered (computed or shed)",
        net.responses == kNetRequests);

    json.set("requests", static_cast<double>(kRequests));
    json.set("qps_jobs1", results.front().qps);
    json.set("qps_jobs4", results.back().qps);
    json.set("hit_rate", results.front().hitRate);
    json.set("net_qps_sustained", net.qpsSustained);
    json.set("net_p99_ms", net.p99Ms);
    json.set("net_shed_rate", net.shedRate);
    if (!json.write())
        return 1;
    return 0;
}
