/**
 * @file
 * The epoll front-end of `twocs serve --listen`.
 *
 * One non-blocking event loop owns the listener and every
 * connection: reads are reassembled into request lines by the
 * LineFramer (a query split across packets and many queries in one
 * packet both work), each line is routed to its canonical-key shard
 * through the ShardPool's bounded mailboxes, and replies flow back
 * through per-connection write queues. Per-connection ordering is
 * strict FIFO: every request takes a sequence slot at read time and
 * its response — computed, `overloaded`, or `line_too_long` — is
 * emitted in slot order, whatever shard finished first.
 *
 * Memory is bounded end to end: mailboxes bound admitted work (the
 * shed policies answer the overflow), the framer bounds a single
 * line, and a slow reader that lets its write buffer reach the
 * high-water mark has its *reads* paused until the buffer drains —
 * backpressure instead of growth.
 *
 * Shutdown (stop()/SIGTERM via the stop eventfd) is a graceful
 * drain: the listener closes, reads stop, every already-admitted
 * request still completes and flushes, then connections close and
 * run() returns. A drain deadline bounds the wait against clients
 * that never read.
 */

#ifndef TWOCS_NET_SERVER_HH
#define TWOCS_NET_SERVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/framer.hh"
#include "net/shard.hh"
#include "svc/metrics.hh"

namespace twocs::net {

struct ServerOptions
{
    /** TCP port on 127.0.0.1; 0 binds an ephemeral port (see
     *  Server::port() for the resolved value). */
    int port = 0;
    /** Worker shards over the canonical-key space. */
    int shards = 4;
    /** Bounded mailbox depth per shard (admission control). */
    std::size_t queueDepth = 128;
    ShedPolicy shedPolicy = ShedPolicy::Reject;
    /** Advertised in `overloaded` errors as `retry_after_ms`. */
    std::int64_t retryAfterMs = 50;
    /** Per-line byte cap shared with the stdin path. */
    std::size_t maxLineBytes = LineFramer::kDefaultMaxLineBytes;
    /** Pause a connection's reads when its unflushed write buffer
     *  exceeds this many bytes; resume at half. */
    std::size_t writeHighWater = 1u << 20;
    /** Force-close connections still unflushed this long after a
     *  drain began (a peer that never reads cannot wedge shutdown). */
    std::int64_t drainTimeoutMs = 5000;
    /** SO_SNDBUF for accepted sockets; 0 keeps the kernel default.
     *  Tests shrink it so backpressure is reachable without
     *  megabytes of responses. */
    int sendBufferBytes = 0;
    /** Per-shard service knobs (jobs, cache capacity, batch). */
    svc::ServiceOptions service;
    /** When non-empty, the aggregated metrics JSON is written here
     *  after the drain completes. */
    std::string metricsPath;
};

/** Event-loop counters (single-writer; read after run() returns,
 *  or racily mid-run from another thread for progress displays). */
struct ServerStats
{
    std::uint64_t accepted = 0;
    std::uint64_t requests = 0;
    std::uint64_t responses = 0;
    std::uint64_t sheds = 0;
    std::uint64_t overlongLines = 0;
    std::uint64_t readPauses = 0;
    /** Deepest any shard mailbox has been (valid once drained). */
    std::size_t queueHighWater = 0;
};

class Server
{
  public:
    /** Binds and listens immediately; fatal() on any socket error
     *  (port in use, out of fds). */
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** The resolved listening port (after an ephemeral bind). */
    int port() const { return port_; }

    /** Run the event loop on the calling thread until a drain
     *  completes. */
    void run();

    /** run() on a background thread (tests and in-process benches);
     *  pair with stop() + join(). */
    void start();

    /** Request a graceful drain; safe from any thread. The wake is
     *  one eventfd write, so a signal handler may call write() on
     *  stopEventFd() directly instead. */
    void stop();

    /** The eventfd a signal handler can write(2) to request the
     *  drain (async-signal-safe, unlike calling stop()'s locking). */
    int stopEventFd() const { return stopFd_; }

    /** Join the start() thread (after stop(), or a self-drain). */
    void join();

    ServerStats stats() const;

    /** Aggregated service registry: every shard's counters plus the
     *  net-level connection/shed/queue metrics. Call after run()
     *  returns (shards are drained then). */
    svc::ServiceMetrics aggregatedMetrics() const;

  private:
    struct Connection;
    struct Completion
    {
        std::uint64_t connection = 0;
        std::uint64_t seq = 0;
        std::string response;
    };

    void openListener();
    void acceptReady();
    void handleReadable(Connection &conn);
    void handleWritable(Connection &conn);
    void processFrames(Connection &conn, bool atEof);
    void enqueueResponse(Connection &conn, std::uint64_t seq,
                         std::string &&line);
    void advanceWriteQueue(Connection &conn);
    void flushWrites(Connection &conn);
    void pauseReads(Connection &conn);
    void resumeReads(Connection &conn);
    void drainCompletions();
    void beginDrain();
    void closeConnection(std::uint64_t id);
    void updateEpoll(Connection &conn);
    bool connectionFinished(const Connection &conn) const;

    ServerOptions options_;
    int port_ = 0;
    int epollFd_ = -1;
    int listenFd_ = -1;
    int wakeFd_ = -1;
    int stopFd_ = -1;

    std::unique_ptr<ShardPool> pool_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Connection>>
        connections_;
    std::uint64_t nextConnectionId_ = 16;

    std::mutex completionsMutex_;
    std::vector<Completion> completions_;

    bool draining_ = false;
    std::int64_t drainDeadlineNs_ = 0;

    svc::ServiceMetrics netMetrics_;
    std::atomic<std::uint64_t> accepted_{ 0 };
    std::atomic<std::uint64_t> requests_{ 0 };
    std::atomic<std::uint64_t> responses_{ 0 };
    std::atomic<std::uint64_t> sheds_{ 0 };
    std::atomic<std::uint64_t> overlong_{ 0 };
    std::atomic<std::uint64_t> readPauses_{ 0 };

    std::thread loopThread_;
};

} // namespace twocs::net

#endif // TWOCS_NET_SERVER_HH
