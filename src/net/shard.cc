#include "shard.hh"

#include "obs/obs.hh"
#include "svc/protocol.hh"
#include "util/logging.hh"

namespace twocs::net {

ShedPolicy
shedPolicyFromName(const std::string &name)
{
    if (name == "reject")
        return ShedPolicy::Reject;
    if (name == "oldest")
        return ShedPolicy::Oldest;
    fatal("unknown shed policy '", name, "' (reject|oldest)");
}

const char *
shedPolicyName(ShedPolicy policy)
{
    return policy == ShedPolicy::Reject ? "reject" : "oldest";
}

AdmitResult
admitOrShed(Mailbox<Envelope> &box, ShedPolicy policy,
            Envelope &&env)
{
    AdmitResult result;
    for (;;) {
        if (box.tryPush(std::move(env))) {
            result.outcome = Admit::Enqueued;
            return result;
        }
        if (policy == ShedPolicy::Reject || box.closed()) {
            result.outcome = Admit::ShedNew;
            result.shed = std::move(env);
            return result;
        }
        std::optional<Envelope> evicted = box.stealOldest();
        if (!evicted) {
            // The consumer drained the queue between our push and
            // the steal; there is room now, so push again.
            continue;
        }
        // Single producer: the slot the eviction freed cannot be
        // refilled by anyone else, so this push must succeed.
        const bool pushed = box.tryPush(std::move(env));
        panicIf(!pushed, "mailbox refused a push after eviction");
        result.outcome = Admit::ShedOldest;
        result.shed = std::move(*evicted);
        return result;
    }
}

ShardPool::ShardPool(ShardPoolOptions options, ReplyFn reply)
    : options_(std::move(options)), reply_(std::move(reply))
{
    fatalIf(options_.shards < 1,
            "--shards expects a positive count, got ",
            options_.shards);
    fatalIf(options_.queueDepth == 0,
            "--queue-depth expects a positive count");
    fatalIf(options_.retryAfterMs < 0,
            "retry_after_ms must be non-negative");
    // Shards own their caches; the per-shard service never writes
    // a metrics file of its own (the server aggregates).
    options_.service.metricsPath.clear();
    shards_.reserve(static_cast<std::size_t>(options_.shards));
    for (int i = 0; i < options_.shards; ++i) {
        auto shard = std::make_unique<Shard>(options_.queueDepth);
        shard->service =
            std::make_unique<svc::QueryService>(options_.service);
        shards_.push_back(std::move(shard));
    }
    for (int i = 0; i < options_.shards; ++i) {
        Shard *shard = shards_[static_cast<std::size_t>(i)].get();
        shard->thread = std::thread(
            [this, shard, i] { workerLoop(*shard, i); });
    }
}

ShardPool::~ShardPool()
{
    drain();
}

int
ShardPool::shardOf(const std::string &line) const
{
    const auto n = static_cast<std::uint64_t>(shards_.size());
    if (n == 1)
        return 0;
    try {
        const svc::Query query = svc::parseQuery(line);
        // Stats queries have no canonical key; pin them to shard 0
        // so repeated stats see one shard's monotonic counters.
        if (query.kind == svc::QueryKind::Stats)
            return 0;
        return static_cast<int>(
            svc::fnv1a(svc::canonicalKey(query)) % n);
    } catch (const FatalError &) {
        // Unparseable lines still get routed (and answered with the
        // parser's diagnostic by the owning shard's service).
        return static_cast<int>(svc::fnv1a(line) % n);
    }
}

std::string
ShardPool::overloadedResponse(const std::string &line) const
{
    const std::string message =
        "server overloaded: shard queue full; retry in " +
        std::to_string(options_.retryAfterMs) + " ms";
    return svc::errorResponseLine(
        svc::tryExtractIdJson(line), "overloaded", message,
        "\"retry_after_ms\":" + std::to_string(options_.retryAfterMs));
}

Admit
ShardPool::submit(Envelope &&env)
{
    Shard &shard =
        *shards_[static_cast<std::size_t>(shardOf(env.line))];
    AdmitResult result = admitOrShed(shard.mailbox,
                                     options_.shedPolicy,
                                     std::move(env));
    if (result.shed) {
        TWOCS_OBS_INSTANT(obs::Category::Net, "net.shed");
        std::string response = overloadedResponse(result.shed->line);
        reply_(std::move(*result.shed), std::move(response));
    }
    return result.outcome;
}

void
ShardPool::workerLoop(Shard &shard, int index)
{
    obs::Tracer::setThreadName("net.shard-" + std::to_string(index));
    Envelope env;
    while (shard.mailbox.popWait(env)) {
        std::string response =
            shard.service->handle(env.line, env.lineNo);
        reply_(std::move(env), std::move(response));
    }
}

void
ShardPool::drain()
{
    if (drained_)
        return;
    drained_ = true;
    for (auto &shard : shards_)
        shard->mailbox.close();
    for (auto &shard : shards_) {
        if (shard->thread.joinable())
            shard->thread.join();
    }
}

std::size_t
ShardPool::queueHighWater() const
{
    std::size_t high = 0;
    for (const auto &shard : shards_)
        high = std::max(high, shard->mailbox.highWater());
    return high;
}

void
ShardPool::foldMetrics(svc::ServiceMetrics &into) const
{
    for (const auto &shard : shards_) {
        into.absorb(shard->service->metrics());
        into.noteQueueDepth(shard->mailbox.highWater());
    }
}

std::vector<const svc::ServiceMetrics *>
ShardPool::shardMetrics() const
{
    std::vector<const svc::ServiceMetrics *> out;
    out.reserve(shards_.size());
    for (const auto &shard : shards_)
        out.push_back(&shard->service->metrics());
    return out;
}

} // namespace twocs::net
