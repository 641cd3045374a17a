/**
 * @file
 * The JSON-lines request protocol of the projection query service.
 *
 * One request per line, one JSON object per request:
 *
 *   {"id": 7, "kind": "project", "hidden": 65536, "seqlen": 4096,
 *    "batch": 1, "parallel": {"tp": 256, "pp": 4, "zero": 1},
 *    "flop_scale": 4}
 *
 * The object is flat except for two structured members: `parallel`,
 * which carries the full 3D plan — tp, pp, micro, dp, zero, ep, sp —
 * and `perturb`, which carries a what-if perturbation:
 * {"task": N, "scale": r}.
 *
 * Query kinds mirror the CLI analyses: `project` (operator-model
 * serialized-comm projection, optionally `"ground_truth": true` for
 * the full simulated iteration), `analyze` (zoo-model iteration
 * breakdown), `slack` (overlapped DP-comm analysis), `memory`
 * (per-device footprint / minimum TP), `perturb` (replayed
 * what-if over the case-study graph: "this task `scale`x slower,
 * new makespan?") and `stats` (service counter snapshot). Parsing
 * is strict: malformed JSON, unknown fields,
 * fields that do not apply to the requested kind, wrong value types
 * and out-of-range values are all rejected with a diagnostic naming
 * the byte offset or field, so a misspelled key can never silently
 * fall back to a default.
 *
 * parseQuery() also *normalizes* the request: defaults are filled
 * in, the device name is resolved against the hardware catalog, and
 * canonicalKey() renders the result as a canonical string — two
 * requests that mean the same configuration produce the same key, so
 * the key (hashed with FNV-1a) is what the result cache indexes.
 */

#ifndef TWOCS_SVC_PROTOCOL_HH
#define TWOCS_SVC_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>

#include "hw/device_spec.hh"
#include "model/parallel.hh"
#include "util/logging.hh"

namespace twocs::svc {

/** A request-syntax error and the byte offset it names, as data:
 *  message text may echo the request, so it is never scraped. */
struct ParseError : FatalError
{
    ParseError(std::size_t at, const std::string &message)
        : FatalError(message), offset(at)
    {}
    std::size_t offset;
};

/** What a request asks for. */
enum class QueryKind { Project, Analyze, Slack, Memory, Perturb, Stats };

/** The protocol name of a kind ("project", ...). */
const char *kindName(QueryKind kind);

/** A parsed, normalized request. */
struct Query
{
    QueryKind kind = QueryKind::Stats;

    /**
     * The request's `id` field re-serialized as a JSON token
     * (`"7"`, `"\"job-3\""`); empty when the request had none. Echoed
     * into the response but never part of the cache key.
     */
    std::string idJson;

    // --- hyperparameters (project / slack / analyze) ---
    std::int64_t hidden = 0;
    std::int64_t seqLen = 0;
    std::int64_t batch = 0;
    int tpDegree = 0;
    int dpDegree = 1;
    /**
     * Full 3D plan (the structured `"parallel": {"tp": 8, "pp": 4,
     * ...}` object). Always normalized after parsing:
     * plan.tpDegree/dpDegree mirror tpDegree/dpDegree above, which
     * hold the kind's defaults when the request has no `parallel`.
     */
    model::ParallelPlan plan;
    /** Whether the request named `parallel.tp` (memory:
     *  footprint-at-TP mode vs minimum-TP mode). */
    bool tpSet = false;
    /** Whether the request named `batch` (analyze: zoo default vs
     *  override). */
    bool batchSet = false;
    /** Zoo model name (analyze / memory). */
    std::string model;
    /** Number format name (analyze / memory); always normalized. */
    std::string precision = "fp16";
    /** project: evaluate the full simulated iteration instead of the
     *  operator-model projection. */
    bool groundTruth = false;

    // --- what-if perturbation (perturb) ---
    /** Task id whose duration the what-if rescales. */
    std::int64_t perturbTask = 0;
    /** Multiplier applied to the task's base duration. */
    double perturbScale = 1.0;
    /** Whether the request carried the structured `perturb` object
     *  (required for kind "perturb"). */
    bool perturbSet = false;

    // --- system under study (all compute kinds) ---
    /** Resolved catalog device name (never empty after parsing). */
    std::string device;
    double flopScale = 1.0;
    double bwScale = 1.0;
    bool inNetworkReduction = false;
};

/**
 * Parse and normalize one request line; fatal() with a diagnostic on
 * any malformed, unknown, ill-typed or out-of-range input. Syntax
 * errors throw ParseError, whose diagnostic and `offset` name the
 * byte; semantic errors name the field.
 */
Query parseQuery(const std::string &line);

/**
 * parseQuery() that also hands back, from the same pass, the id a
 * failed line echoes: `*idToken` is the first top-level `id` as
 * written (a number or a string) once the reader has accepted that
 * member, else "". So a semantic error echoes the id wherever it
 * sits, a syntax error only one before the failing byte.
 */
Query parseQuery(const std::string &line, std::string *idToken);

/**
 * The canonical textual form of a normalized query: kind, device,
 * evolution scaling and every kind-relevant hyperparameter, with
 * defaults filled in. Identical configurations — however spelled in
 * the request — render identically, so this string (hashed with
 * fnv1a()) is the cache key. Stats queries are never cached and
 * return "".
 */
std::string canonicalKey(const Query &query);

/** 64-bit FNV-1a, the service's canonical string hash. */
std::uint64_t fnv1a(std::string_view s);

/**
 * A complete response line (no trailing newline) for a failure
 * detected outside the batching pipeline — admission-control
 * shedding and overlong-line drops in the network front-end. It
 * renders the structured `error` object with `code`; `extraJson`
 * (e.g. `"retry_after_ms":50`) is spliced into that object verbatim;
 * `idJson` is echoed when non-empty, exactly like eval errors from
 * the service.
 */
std::string errorResponseLine(const std::string &idJson,
                              const char *code,
                              const std::string &message,
                              const std::string &extraJson = "");

/** Map a protocol precision name to the hw enum; fatal() if unknown. */
hw::Precision precisionFromName(const std::string &name);

} // namespace twocs::svc

#endif // TWOCS_SVC_PROTOCOL_HH
