/**
 * @file
 * The sharded worker tier behind the network front-end.
 *
 * Each shard owns a slice of the FNV-1a canonical-key space — the
 * very hash the svc result cache already shards by — plus its own
 * resident svc::QueryService (analysis registry + result cache).
 * Routing by canonical key means every repeat of a configuration
 * lands on the same shard, so per-shard caches stay hot without any
 * cross-shard coordination, and a shard's responses are pure
 * functions of its requests (the socket path answers byte-identically
 * to the stdin path at any shard count).
 *
 * Admission control is the pool's front door: every shard sits
 * behind a bounded Mailbox, and when a mailbox is full the
 * configured ShedPolicy decides who pays — the newcomer (`reject`)
 * or the head of the queue (`oldest`) — with a structured
 * `overloaded` error (code + retry_after_ms) instead of unbounded
 * queueing. admitOrShed() is a free function so the policy's
 * determinism is unit-testable without threads.
 */

#ifndef TWOCS_NET_SHARD_HH
#define TWOCS_NET_SHARD_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/mailbox.hh"
#include "svc/service.hh"

namespace twocs::net {

/** Who is refused when a shard's mailbox is full. */
enum class ShedPolicy
{
    Reject, //!< the arriving request is answered `overloaded`
    Oldest, //!< the queue head is evicted and answered `overloaded`;
            //!< the arriving request takes its place
};

/** Parse "reject" / "oldest"; fatal() on anything else. */
ShedPolicy shedPolicyFromName(const std::string &name);
const char *shedPolicyName(ShedPolicy policy);

/** One request in flight between the event loop and a shard. */
struct Envelope
{
    /** Originating connection (opaque to the pool). */
    std::uint64_t connection = 0;
    /** Per-connection response slot: replies are reassembled in seq
     *  order so one connection's responses always come back FIFO. */
    std::uint64_t seq = 0;
    /** Position in the connection's line stream (diagnostics). */
    std::size_t lineNo = 0;
    std::string line;
};

/** Outcome of offering one envelope to a shard. */
enum class Admit
{
    Enqueued,  //!< accepted into the mailbox
    ShedNew,   //!< mailbox full, newcomer refused
    ShedOldest //!< mailbox full, oldest evicted, newcomer accepted
};

struct AdmitResult
{
    Admit outcome = Admit::Enqueued;
    /** The envelope that must be answered `overloaded` (the
     *  newcomer under ShedNew, the evictee under ShedOldest). */
    std::optional<Envelope> shed;
};

/**
 * Offer `env` to a bounded mailbox under a shed policy. Single
 * producer: the caller must be the mailbox's only pushing thread
 * (the event loop), which is what makes the eviction slot-handoff
 * race-free and the policy deterministic for a given arrival/drain
 * interleaving.
 */
AdmitResult admitOrShed(Mailbox<Envelope> &box, ShedPolicy policy,
                        Envelope &&env);

struct ShardPoolOptions
{
    /** Worker shards (each owns one mailbox + one QueryService). */
    int shards = 4;
    /** Mailbox capacity per shard — the admission bound. */
    std::size_t queueDepth = 128;
    ShedPolicy shedPolicy = ShedPolicy::Reject;
    /** Advertised in `overloaded` errors as `retry_after_ms`. */
    std::int64_t retryAfterMs = 50;
    /** Per-shard service knobs (jobs, cache capacity, batch). */
    svc::ServiceOptions service;
};

/**
 * N shard threads, each draining its mailbox through its own
 * QueryService. Replies (and `overloaded` shed responses) are
 * delivered through the reply callback — from a shard thread for
 * computed responses, from the submitting thread for sheds — so the
 * callback must be thread-safe (the server's is a mutex-guarded
 * completion queue + eventfd wake).
 */
class ShardPool
{
  public:
    using ReplyFn =
        std::function<void(Envelope &&env, std::string &&response)>;

    ShardPool(ShardPoolOptions options, ReplyFn reply);
    ~ShardPool();

    ShardPool(const ShardPool &) = delete;
    ShardPool &operator=(const ShardPool &) = delete;

    /** The shard whose key-space slice owns this request line. */
    int shardOf(const std::string &line) const;

    /** Route + admit one request; sheds are answered through the
     *  reply callback before this returns. Event-loop thread only. */
    Admit submit(Envelope &&env);

    /**
     * Graceful drain: close every mailbox (already-admitted requests
     * still complete and reply) and join the shard threads.
     * Idempotent.
     */
    void drain();

    int shards() const { return static_cast<int>(shards_.size()); }

    /** Shard `shard`'s service; read its registry after drain(). It
     *  holds the shard's own mailbox high-water mark too. */
    const svc::QueryService &service(int shard) const
    {
        return *shards_[static_cast<std::size_t>(shard)]->service;
    }

    /** The deterministic `overloaded` response for a request line. */
    std::string overloadedResponse(const std::string &line) const;

  private:
    struct Shard
    {
        explicit Shard(std::size_t depth) : mailbox(depth) {}
        Mailbox<Envelope> mailbox;
        std::unique_ptr<svc::QueryService> service;
        std::thread thread;
    };

    void workerLoop(Shard &shard, int index);

    ShardPoolOptions options_;
    ReplyFn reply_;
    std::vector<std::unique_ptr<Shard>> shards_;
    bool drained_ = false;
};

} // namespace twocs::net

#endif // TWOCS_NET_SHARD_HH
