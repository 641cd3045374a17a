#include "server.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/stream.hh"
#include "obs/obs.hh"
#include "svc/protocol.hh"
#include "util/logging.hh"

namespace twocs::net {

namespace {

/** epoll user-data tags for the non-connection descriptors. */
constexpr std::uint64_t kListenerTag = 1;
constexpr std::uint64_t kWakeTag = 2;
constexpr std::uint64_t kStopTag = 3;

/** While accepts are paused, how often the loop retries one. */
constexpr int kAcceptRetryMs = 50;
constexpr std::int64_t kAcceptRetryNs = kAcceptRetryMs * 1'000'000LL;

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

/** One client socket's framing, sequencing and write-back state. */
struct Server::Connection
{
    int fd = -1;
    std::uint64_t id = 0;
    LineFramer framer;
    /** Position in this connection's line stream (diagnostics —
     *  matches the stdin path's numbering for the same bytes). */
    std::size_t lineNo = 0;
    /** Next response slot to hand out at read time. */
    std::uint64_t nextSeq = 0;
    /** Next slot to append to the write buffer (FIFO replies). */
    std::uint64_t nextWrite = 0;
    /** Out-of-order completions parked until their slot comes up. */
    std::map<std::uint64_t, std::string> pendingOut;
    std::string writeBuf;
    std::size_t writeOff = 0;
    bool peerClosed = false;
    bool readPaused = false;
    bool wantWrite = false;

    explicit Connection(std::size_t max_line_bytes)
        : framer(max_line_bytes)
    {
    }

    std::size_t unflushedBytes() const
    {
        return writeBuf.size() - writeOff;
    }
};

Server::Server(ServerOptions options) : options_(std::move(options))
{
    fatalIf(options_.port < 0 || options_.port > 65535,
            "serve: --listen expects a port in [0, 65535], got ",
            options_.port);
    fatalIf(options_.writeHighWater == 0,
            "serve: write high-water mark must be positive");
    fatalIf(options_.drainTimeoutMs < 0,
            "serve: drain timeout must be non-negative");

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    fatalIf(epollFd_ < 0, "net: epoll_create1 failed: ",
            std::strerror(errno));
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    stopFd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    fatalIf(wakeFd_ < 0 || stopFd_ < 0,
            "net: eventfd failed: ", std::strerror(errno));

    openListener();

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerTag;
    fatalIf(::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_, &ev) < 0,
            "net: epoll_ctl(listener) failed: ",
            std::strerror(errno));
    ev.data.u64 = kWakeTag;
    fatalIf(::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) < 0,
            "net: epoll_ctl(wake) failed: ", std::strerror(errno));
    ev.data.u64 = kStopTag;
    fatalIf(::epoll_ctl(epollFd_, EPOLL_CTL_ADD, stopFd_, &ev) < 0,
            "net: epoll_ctl(stop) failed: ", std::strerror(errno));

    ShardPoolOptions pool_options;
    pool_options.shards = options_.shards;
    pool_options.queueDepth = options_.queueDepth;
    pool_options.shedPolicy = options_.shedPolicy;
    pool_options.retryAfterMs = options_.retryAfterMs;
    pool_options.service = options_.service;
    pool_ = std::make_unique<ShardPool>(
        std::move(pool_options),
        [this](Envelope &&env, std::string &&response) {
            {
                std::lock_guard<std::mutex> lock(completionsMutex_);
                completions_.push_back({ env.connection, env.seq,
                                         std::move(response) });
            }
            const std::uint64_t one = 1;
            // eventfd counters never fill at this rate; a failed
            // wake only delays delivery to the next loop tick.
            (void)!::write(wakeFd_, &one, sizeof one);
        });
}

Server::~Server()
{
    if (loopThread_.joinable()) {
        stop();
        loopThread_.join();
    }
    pool_.reset();
    for (auto &[id, conn] : connections_) {
        if (conn->fd >= 0)
            ::close(conn->fd);
    }
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (wakeFd_ >= 0)
        ::close(wakeFd_);
    if (stopFd_ >= 0)
        ::close(stopFd_);
    if (epollFd_ >= 0)
        ::close(epollFd_);
}

void
Server::openListener()
{
    listenFd_ = ::socket(AF_INET,
                         SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0);
    fatalIf(listenFd_ < 0,
            "net: socket() failed: ", std::strerror(errno));
    const int yes = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &yes,
                 sizeof yes);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(options_.port));
    fatalIf(::bind(listenFd_,
                   reinterpret_cast<const sockaddr *>(&addr),
                   sizeof addr) < 0,
            "net: cannot bind 127.0.0.1:", options_.port, ": ",
            std::strerror(errno));
    fatalIf(::listen(listenFd_, SOMAXCONN) < 0,
            "net: listen() failed: ", std::strerror(errno));

    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    fatalIf(::getsockname(listenFd_,
                          reinterpret_cast<sockaddr *>(&bound),
                          &len) < 0,
            "net: getsockname() failed: ", std::strerror(errno));
    port_ = static_cast<int>(ntohs(bound.sin_port));
}

void
Server::updateEpoll(Connection &conn)
{
    epoll_event ev{};
    if (!conn.readPaused && !conn.peerClosed && !draining_)
        ev.events |= EPOLLIN;
    if (conn.wantWrite)
        ev.events |= EPOLLOUT;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
Server::acceptReady()
{
    for (;;) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno == EMFILE || errno == ENFILE) {
                // The listener is level-triggered: left armed, it
                // stays readable and the loop spins on this error.
                // A timed retry that fails again stays in the same
                // episode: no second warning, no second count.
                if (acceptsPaused_)
                    return;
                warn("net: accept failed: ", std::strerror(errno),
                     "; pausing accepts until a descriptor is free");
                acceptsPaused_ = true;
                acceptRetryNs_ = nowNs() + kAcceptRetryNs;
                acceptPauses_.add();
                armListener(false);
                return;
            }
            warn("net: accept failed: ", std::strerror(errno));
            return;
        }
        if (acceptsPaused_) {
            // A timed retry got a descriptor: the episode is over.
            acceptsPaused_ = false;
            armListener(true);
        }
        const int yes = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof yes);
        if (options_.sendBufferBytes > 0) {
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF,
                         &options_.sendBufferBytes,
                         sizeof options_.sendBufferBytes);
        }

        auto conn =
            std::make_unique<Connection>(options_.maxLineBytes);
        conn->fd = fd;
        conn->id = nextConnectionId_++;

        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
            warn("net: epoll_ctl(conn) failed: ",
                 std::strerror(errno));
            ::close(fd);
            continue;
        }
        TWOCS_OBS_INSTANT(obs::Category::Net, "net.accept");
        accepts_.add();
        connections_.emplace(conn->id, std::move(conn));
        openHighWater_.observe(connections_.size());
    }
}

void
Server::armListener(bool armed)
{
    epoll_event ev{};
    ev.events = armed ? static_cast<std::uint32_t>(EPOLLIN) : 0u;
    ev.data.u64 = kListenerTag;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, listenFd_, &ev);
}

void
Server::enqueueResponse(Connection &conn, std::uint64_t seq,
                        std::string &&line)
{
    line += '\n';
    conn.pendingOut.emplace(seq, std::move(line));
    responses_.add();
    advanceWriteQueue(conn);
}

void
Server::advanceWriteQueue(Connection &conn)
{
    for (auto it = conn.pendingOut.find(conn.nextWrite);
         it != conn.pendingOut.end();
         it = conn.pendingOut.find(conn.nextWrite)) {
        conn.writeBuf += it->second;
        conn.pendingOut.erase(it);
        ++conn.nextWrite;
    }
    flushWrites(conn);
}

bool
Server::connectionFinished(const Connection &conn) const
{
    return (conn.peerClosed || draining_) &&
           conn.pendingOut.empty() &&
           conn.nextWrite == conn.nextSeq &&
           conn.unflushedBytes() == 0;
}

void
Server::flushWrites(Connection &conn)
{
    while (conn.writeOff < conn.writeBuf.size()) {
        const ssize_t n =
            ::send(conn.fd, conn.writeBuf.data() + conn.writeOff,
                   conn.writeBuf.size() - conn.writeOff,
                   MSG_NOSIGNAL);
        if (n > 0) {
            conn.writeOff += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            if (!conn.wantWrite) {
                conn.wantWrite = true;
                updateEpoll(conn);
            }
            // Keep the buffer compact while the peer dawdles.
            if (conn.writeOff > (1u << 16)) {
                conn.writeBuf.erase(0, conn.writeOff);
                conn.writeOff = 0;
            }
            return;
        }
        if (n < 0 && errno == EINTR)
            continue;
        closeConnection(conn.id);
        return;
    }
    conn.writeBuf.clear();
    conn.writeOff = 0;
    if (conn.wantWrite) {
        conn.wantWrite = false;
        updateEpoll(conn);
    }
    if (connectionFinished(conn)) {
        closeConnection(conn.id);
        return;
    }
    if (conn.readPaused)
        resumeReads(conn);
}

void
Server::pauseReads(Connection &conn)
{
    if (conn.readPaused || conn.peerClosed || draining_)
        return;
    conn.readPaused = true;
    readPauses_.add();
    updateEpoll(conn);
}

void
Server::resumeReads(Connection &conn)
{
    if (!conn.readPaused || draining_)
        return;
    if (conn.unflushedBytes() > options_.writeHighWater / 2)
        return;
    conn.readPaused = false;
    updateEpoll(conn);
}

void
Server::processFrames(Connection &conn, bool atEof)
{
    Frame frame;
    // finish() also drains the ready queue, so at EOF it both
    // yields the queued frames and flushes the unterminated tail.
    while (atEof ? conn.framer.finish(frame)
                 : conn.framer.pop(frame)) {
        ++conn.lineNo;
        if (frame.kind == Frame::Kind::Overlong) {
            enqueueResponse(conn, conn.nextSeq++,
                            answerOverlong(overlong_, conn.lineNo,
                                           frame.droppedBytes,
                                           options_.maxLineBytes));
            continue;
        }
        // The stdin path skips whitespace-only lines (but counts
        // them); the socket path must agree byte for byte.
        if (frame.text.find_first_not_of(" \t\r") ==
            std::string::npos) {
            continue;
        }
        TWOCS_OBS_INSTANT(obs::Category::Net, "net.dispatch");
        Envelope env;
        env.connection = conn.id;
        env.seq = conn.nextSeq++;
        env.lineNo = conn.lineNo;
        env.line = std::move(frame.text);
        if (pool_->submit(std::move(env)) != Admit::Enqueued)
            sheds_.add();
    }
}

void
Server::handleReadable(Connection &conn)
{
    char buf[1u << 16];
    for (;;) {
        const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
        if (n > 0) {
            TWOCS_OBS_SPAN(obs::Category::Net, "net.read", [n] {
                return "bytes=" + std::to_string(n);
            });
            conn.framer.feed(buf, static_cast<std::size_t>(n));
            processFrames(conn, /*atEof=*/false);
            // Sheds reply synchronously through the completion
            // queue; fold them in now so backpressure sees the
            // true buffered volume.
            drainCompletions();
            if (connections_.find(conn.id) == connections_.end())
                return; // a write error closed us mid-read
            if (conn.unflushedBytes() > options_.writeHighWater) {
                pauseReads(conn);
                return;
            }
            continue;
        }
        if (n == 0) {
            conn.peerClosed = true;
            processFrames(conn, /*atEof=*/true);
            drainCompletions();
            if (connections_.find(conn.id) == connections_.end())
                return;
            updateEpoll(conn);
            if (connectionFinished(conn))
                closeConnection(conn.id);
            return;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return;
        if (errno == EINTR)
            continue;
        closeConnection(conn.id);
        return;
    }
}

void
Server::handleWritable(Connection &conn)
{
    flushWrites(conn);
}

void
Server::drainCompletions()
{
    std::vector<Completion> ready;
    {
        std::lock_guard<std::mutex> lock(completionsMutex_);
        ready.swap(completions_);
    }
    for (Completion &c : ready) {
        const auto it = connections_.find(c.connection);
        if (it == connections_.end())
            continue; // the connection died before its reply
        enqueueResponse(*it->second, c.seq, std::move(c.response));
    }
}

void
Server::closeConnection(std::uint64_t id)
{
    const auto it = connections_.find(id);
    if (it == connections_.end())
        return;
    Connection &conn = *it->second;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    if (!conn.peerClosed) {
        // Closing with unread bytes in the receive queue makes the
        // kernel send RST instead of FIN; a draining server that
        // stopped reading mid-stream would reset well-behaved
        // clients. Discard what is pending so the close is a FIN.
        char scratch[4096];
        while (::recv(conn.fd, scratch, sizeof scratch,
                      MSG_DONTWAIT) > 0) {
        }
    }
    ::close(conn.fd);
    conn.fd = -1;
    connections_.erase(it);
    if (acceptsPaused_ && listenFd_ >= 0) {
        // A descriptor is free again.
        acceptsPaused_ = false;
        armListener(true);
    }
}

void
Server::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    if (listenFd_ >= 0) {
        ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
        ::close(listenFd_);
        listenFd_ = -1;
    }
    for (auto &[id, conn] : connections_)
        updateEpoll(*conn);
    // Mailboxes close but still deliver what was admitted; this
    // joins the shard threads, so afterwards every reply is queued.
    pool_->drain();
    drainCompletions();
    std::vector<std::uint64_t> ids;
    ids.reserve(connections_.size());
    for (auto &[id, conn] : connections_)
        ids.push_back(id);
    for (const std::uint64_t id : ids) {
        const auto it = connections_.find(id);
        if (it != connections_.end())
            advanceWriteQueue(*it->second);
    }
    drainDeadlineNs_ =
        nowNs() + options_.drainTimeoutMs * 1'000'000;
}

void
Server::run()
{
    obs::Tracer::setThreadName("net.loop");
    epoll_event events[64];
    while (!(draining_ && connections_.empty())) {
        // Paused accepts wake the loop too: descriptors can free up
        // outside this server, where no close of ours re-arms it.
        const int timeout = draining_         ? 50
                            : acceptsPaused_ ? kAcceptRetryMs
                                             : -1;
        const int n = ::epoll_wait(epollFd_, events, 64, timeout);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("net: epoll_wait failed: ", std::strerror(errno));
        }
        for (int i = 0; i < n; ++i) {
            const std::uint64_t tag = events[i].data.u64;
            if (tag == kListenerTag) {
                acceptReady();
                continue;
            }
            if (tag == kWakeTag) {
                std::uint64_t count = 0;
                (void)!::read(wakeFd_, &count, sizeof count);
                drainCompletions();
                continue;
            }
            if (tag == kStopTag) {
                std::uint64_t count = 0;
                (void)!::read(stopFd_, &count, sizeof count);
                beginDrain();
                continue;
            }
            const auto it = connections_.find(tag);
            if (it == connections_.end())
                continue;
            Connection &conn = *it->second;
            if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0 &&
                (events[i].events & EPOLLIN) == 0) {
                closeConnection(conn.id);
                continue;
            }
            if ((events[i].events & EPOLLOUT) != 0)
                handleWritable(conn);
            if (connections_.find(tag) == connections_.end())
                continue;
            if ((events[i].events & EPOLLIN) != 0) {
                if (draining_)
                    continue;
                handleReadable(conn);
            }
        }
        drainCompletions();
        if (acceptsPaused_ && !draining_ && nowNs() >= acceptRetryNs_) {
            acceptRetryNs_ = nowNs() + kAcceptRetryNs;
            acceptReady();
        }
        if (draining_ && drainDeadlineNs_ != 0 &&
            nowNs() > drainDeadlineNs_ && !connections_.empty()) {
            warn("net: drain deadline passed with ",
                 connections_.size(),
                 " connection(s) unflushed; closing them");
            std::vector<std::uint64_t> ids;
            for (auto &[id, conn] : connections_)
                ids.push_back(id);
            for (const std::uint64_t id : ids)
                closeConnection(id);
        }
    }
}

void
Server::start()
{
    panicIf(loopThread_.joinable(), "Server::start() called twice");
    loopThread_ = std::thread([this] { run(); });
}

void
Server::stop()
{
    const std::uint64_t one = 1;
    (void)!::write(stopFd_, &one, sizeof one);
}

void
Server::join()
{
    if (loopThread_.joinable())
        loopThread_.join();
}

obs::Metrics
Server::metrics() const
{
    obs::Metrics total = svc::serveMetrics();
    std::vector<obs::Metrics> &rows = total.list("shards");
    for (int i = 0; i < pool_->shards(); ++i) {
        const obs::Metrics &shard = pool_->service(i).metrics();
        total.merge(shard);
        obs::Metrics row;
        row.gauge("shard").observe(static_cast<std::uint64_t>(i));
        row.counter("requests").add(shard.value("requests"));
        row.histogram("latency_seconds", { 0.50, 0.99, 1.0 })
            .merge(*shard.findHistogram("latency_seconds"));
        rows.push_back(std::move(row));
    }
    total.merge(loop_);
    return total;
}

} // namespace twocs::net
