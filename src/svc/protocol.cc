#include "protocol.hh"

#include <cmath>
#include <cstdlib>
#include <iterator>
#include <list>
#include <optional>
#include <utility>
#include <vector>

#include "core/system_config.hh"
#include "hw/catalog.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace twocs::svc {

namespace {

using Token = json::Reader::Token;

/** One member of the request object, pointing into the line (or
 *  into the decoded copy of a name or value with escapes). Members
 *  of `parallel`/`perturb` follow the object's own entry. */
struct Field
{
    std::string_view key; //!< Decoded name.
    Token type = Token::Null; //!< A value token or ObjectBegin.
    std::string_view raw;  //!< The value as written.
    std::string_view text; //!< String: the decoded value.
    double number = 0.0;
    int parent = -1; //!< Index of the enclosing object's entry.
};

/** Throw the ParseError for a syntax error at byte `at`. */
template <typename... Args>
[[noreturn]] void
syntaxError(std::size_t at, Args &&...what)
{
    throw ParseError(at, detail::concat("byte ", at, ": ", what...));
}

/** `chars`, the characters of a string token at byte `at`,
 *  decoded: a view of the line when they hold no escape, else of a
 *  copy kept in `*decoded`. A surrogate escape is a syntax error. */
std::string_view
decodeString(std::string_view chars, std::size_t at,
             std::list<std::string> *decoded)
{
    if (chars.find('\\') == std::string_view::npos)
        return chars;
    std::string &out = decoded->emplace_back();
    const std::size_t surrogate = json::unescape(chars, &out);
    if (surrogate != std::string_view::npos)
        syntaxError(at + 1 + surrogate,
                    "surrogate \\u escapes are not supported");
    return out;
}

/**
 * Throw the ParseError for the reader's syntax fault, worded as the
 * protocol words it: `key` names the member being read. A surrogate
 * escape earlier in the failed string is the first fault.
 */
[[noreturn]] void
syntaxFault(const json::Reader &reader, std::string_view line,
            std::string_view key)
{
    using Error = json::Reader::Error;
    const std::size_t at = reader.errorOffset();
    const std::string_view raw = reader.raw();
    if (!raw.empty() && raw.front() == '"') {
        std::list<std::string> ignored;
        decodeString(raw.substr(1), reader.offset(), &ignored);
    }
    switch (reader.error()) {
      case Error::ExpectedKey:
        syntaxError(at, "expected a quoted member key");
      case Error::ExpectedColon:
        syntaxError(at, "expected ':' after key '", key, "'");
      case Error::ExpectedCommaOrBrace:
      case Error::UnterminatedObject:
        syntaxError(at, "expected ',' or '}' after field '", key, "'");
      case Error::UnexpectedEnd:
      case Error::ExpectedValue:
        syntaxError(at, "expected a value for field '", key, "'");
      case Error::BadLiteral:
        syntaxError(at, "expected '",
                    raw.front() == 't'   ? "true"
                    : raw.front() == 'f' ? "false"
                                         : "null",
                    "'");
      case Error::BadNumber:
        syntaxError(reader.offset(), "'", raw,
                    "' is not a valid JSON number");
      case Error::UnterminatedString:
        throw ParseError(at, "unterminated string (started before byte " +
                                 std::to_string(at) + ")");
      case Error::UnknownEscape:
        syntaxError(at, "unknown escape '\\", line[at], "'");
      case Error::TrailingContent:
        syntaxError(at, "trailing content after the request object");
      default: // the reader's wording is the protocol's
        syntaxError(at, reader.message());
    }
}

/**
 * The request's members, read in one json::Reader pass. Faults of
 * the grammar and of the protocol's value rules (only the top-level
 * `parallel`/`perturb` may be objects, finite numbers, no surrogate
 * escapes) throw at their byte; a repeated name, met earlier, wins
 * over any later fault. `*idToken` receives the first top-level `id`
 * (a number or a string, as written) once that member is accepted.
 */
std::vector<Field>
readFields(std::string_view line, std::list<std::string> *decoded,
           std::string *idToken)
{
    json::Reader reader(line);
    if (reader.next() != Token::ObjectBegin)
        syntaxError(reader.offset(), "a request must be one JSON object");

    std::vector<Field> fields;
    std::optional<std::string_view> duplicate;
    bool id_seen = false;
    try {
        int parent = -1;
        std::string_view key; // the member read last at this level
        for (;;) {
            Token token = reader.next();
            if (token == Token::ObjectEnd) {
                if (parent < 0)
                    break;
                key = fields[static_cast<std::size_t>(parent)].key;
                parent = -1;
                continue;
            }
            if (token == Token::Key) {
                const std::string_view raw = reader.raw();
                key = decodeString(raw.substr(1, raw.size() - 2),
                                   reader.offset(), decoded);
                for (const Field &f : fields) {
                    if (f.parent == parent && f.key == key && !duplicate)
                        duplicate = key;
                }
                token = reader.next();
            }
            if (token == Token::Error)
                syntaxFault(reader, line, key);

            Field f{ key, token, reader.raw(), {}, 0.0, parent };
            switch (token) {
              case Token::ObjectBegin:
                if (parent < 0 && (key == "parallel" || key == "perturb")) {
                    fields.push_back(f);
                    parent = static_cast<int>(fields.size()) - 1;
                    continue;
                }
                [[fallthrough]];
              case Token::ArrayBegin:
                syntaxError(reader.offset(), "field '", key,
                            "' must be a scalar (the only structured "
                            "fields are the top-level 'parallel' and "
                            "'perturb' objects)");
              case Token::String:
                f.text = decodeString(f.raw.substr(1, f.raw.size() - 2),
                                      reader.offset(), decoded);
                break;
              case Token::Number:
                f.number = std::strtod(std::string(f.raw).c_str(), nullptr);
                if (!std::isfinite(f.number))
                    syntaxError(reader.offset(), "'", f.raw,
                                "' is not a valid JSON number");
                break;
              default:
                break;
            }
            if (parent < 0 && key == "id" && !id_seen) {
                id_seen = true;
                if (token == Token::Number || token == Token::String)
                    *idToken = f.raw;
            }
            fields.push_back(f);
        }
        if (reader.next() == Token::Error)
            syntaxFault(reader, line, key);
    } catch (const ParseError &) {
        if (duplicate)
            fatal("duplicate field '", *duplicate, "'");
        throw;
    }
    if (duplicate)
        fatal("duplicate field '", *duplicate, "'");
    return fields;
}

/** Protocol names of the kinds, in QueryKind order. */
constexpr const char *kKindNames[] = { "project", "analyze", "slack",
                                       "memory",  "perturb", "stats" };

QueryKind
kindFromName(std::string_view name)
{
    for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
        if (name == kKindNames[k])
            return static_cast<QueryKind>(k);
    }
    fatal("unknown kind '", name,
          "' (project|analyze|slack|memory|perturb|stats)");
}

constexpr unsigned
bit(QueryKind kind)
{
    return 1u << static_cast<unsigned>(kind);
}

/** The kinds a protocol field applies to (every kind takes `kind`
 *  and `id`), as a mask of bit(kind); 0 for an unknown field. */
unsigned
fieldKinds(std::string_view key)
{
    using enum QueryKind;
    constexpr unsigned plan = bit(Project) | bit(Perturb);
    constexpr unsigned system = plan | bit(Analyze) | bit(Slack) |
                                bit(Memory);
    const std::pair<const char *, unsigned> fields[] = {
        { "hidden", plan | bit(Slack) },
        { "seqlen", plan | bit(Slack) },
        { "batch", plan | bit(Slack) | bit(Analyze) },
        { "parallel", plan | bit(Analyze) | bit(Memory) },
        { "perturb", bit(Perturb) },
        { "model", bit(Analyze) | bit(Memory) },
        { "precision", bit(Analyze) | bit(Memory) },
        { "ground_truth", bit(Project) },
        { "device", system },
        { "flop_scale", system },
        { "bw_scale", system },
        { "pin", system },
    };
    for (const auto &[name, kinds] : fields) {
        if (key == name)
            return kinds;
    }
    return 0;
}

std::int64_t
intField(const Field &f, std::string_view name, std::int64_t lo,
         std::int64_t hi)
{
    fatalIf(f.type != Token::Number, "field '", name,
            "' expects a number");
    const double v = f.number;
    fatalIf(v != std::floor(v) || std::fabs(v) > 9.007199254740992e15,
            "field '", name, "' expects an integer, got ", f.raw);
    const auto i = static_cast<std::int64_t>(v);
    fatalIf(i < lo || i > hi, "field '", name, "' must be in [", lo,
            ", ", hi, "], got ", i);
    return i;
}

double
doubleField(const Field &f, std::string_view name, double lo)
{
    fatalIf(f.type != Token::Number, "field '", name,
            "' expects a number");
    fatalIf(f.number < lo, "field '", name, "' must be >= ", lo,
            ", got ", f.raw);
    return f.number;
}

std::string
stringField(const Field &f)
{
    fatalIf(f.type != Token::String, "field '", f.key,
            "' expects a string");
    return std::string(f.text);
}

bool
boolField(const Field &f, std::string_view name)
{
    fatalIf(f.type != Token::True && f.type != Token::False, "field '",
            name, "' expects true or false");
    return f.type == Token::True;
}

/**
 * Apply the members of the structured `parallel` object (entry
 * `index` of `fields`) onto `plan`, already seeded with the kind's
 * defaults. Sets `*tp_named` when the object spells out `tp`, which
 * is what flips memory queries from minimum-TP mode to
 * footprint-at-TP mode. Diagnostics name members by their full path
 * ('parallel.tp').
 */
void
parallelField(const std::vector<Field> &fields, std::size_t index,
              model::ParallelPlan *plan, bool *tp_named)
{
    fatalIf(fields[index].type != Token::ObjectBegin,
            "field 'parallel' expects an object, e.g. "
            "{\"tp\": 8, \"pp\": 4, \"dp\": 2, \"zero\": 1}");
    for (const Field &sub : fields) {
        if (sub.parent != static_cast<int>(index))
            continue;
        const std::string name = "parallel." + std::string(sub.key);
        const auto degree = [&] {
            return static_cast<int>(intField(sub, name, 1, 1 << 20));
        };
        if (sub.key == "tp") {
            plan->tpDegree = degree();
            *tp_named = true;
        } else if (sub.key == "pp")
            plan->ppDegree = degree();
        else if (sub.key == "micro")
            plan->microBatches = degree();
        else if (sub.key == "dp")
            plan->dpDegree = degree();
        else if (sub.key == "zero")
            plan->zeroStage = static_cast<int>(intField(sub, name, 0, 3));
        else if (sub.key == "ep")
            plan->epDegree = degree();
        else if (sub.key == "sp")
            plan->sequenceParallel = boolField(sub, name);
        else if (sub.key == "overlap")
            plan->overlapDpComm = boolField(sub, name);
        else
            fatal("unknown field '", name,
                  "' (tp|pp|micro|dp|zero|ep|sp|overlap)");
    }
}

/** Apply the structured `perturb` object (entry `index` of
 *  `fields`): the what-if task id and its duration multiplier. */
void
perturbField(const std::vector<Field> &fields, std::size_t index,
             Query *q)
{
    fatalIf(fields[index].type != Token::ObjectBegin,
            "field 'perturb' expects an object, e.g. "
            "{\"task\": 12, \"scale\": 1.05}");
    bool task_named = false;
    for (const Field &sub : fields) {
        if (sub.parent != static_cast<int>(index))
            continue;
        const std::string name = "perturb." + std::string(sub.key);
        if (sub.key == "task") {
            q->perturbTask =
                intField(sub, name, 0, std::int64_t{ 1 } << 32);
            task_named = true;
        } else if (sub.key == "scale")
            q->perturbScale = doubleField(sub, name, 0.0);
        else
            fatal("unknown field '", name, "' (task|scale)");
    }
    fatalIf(!task_named, "field 'perturb' requires 'task'");
    q->perturbSet = true;
}

} // namespace

const char *
kindName(QueryKind kind)
{
    return kKindNames[static_cast<std::size_t>(kind)];
}

hw::Precision
precisionFromName(const std::string &name)
{
    if (name == "fp32")
        return hw::Precision::FP32;
    if (name == "fp16")
        return hw::Precision::FP16;
    if (name == "bf16")
        return hw::Precision::BF16;
    if (name == "fp8")
        return hw::Precision::FP8;
    fatal("unknown precision '", name, "' (fp32|fp16|bf16|fp8)");
}

Query
parseQuery(const std::string &line)
{
    std::string id_token;
    return parseQuery(line, &id_token);
}

Query
parseQuery(const std::string &line, std::string *idToken)
{
    idToken->clear();
    std::list<std::string> decoded;
    const std::vector<Field> fields = readFields(line, &decoded, idToken);

    const Field *kind_field = nullptr;
    for (const Field &f : fields) {
        if (f.parent < 0 && f.key == "kind")
            kind_field = &f;
    }
    fatalIf(kind_field == nullptr, "request is missing the 'kind' "
            "field");

    Query q;
    q.kind = kindFromName(stringField(*kind_field));

    // Per-kind defaults, mirroring the CLI commands.
    switch (q.kind) {
      case QueryKind::Project:
        q.hidden = 16384;
        q.seqLen = 2048;
        q.batch = 1;
        q.tpDegree = 64;
        break;
      case QueryKind::Slack:
        q.hidden = 16384;
        q.seqLen = 4096;
        q.batch = 1;
        break;
      case QueryKind::Analyze:
        q.model = "BERT";
        q.tpDegree = 1;
        q.dpDegree = 1;
        break;
      case QueryKind::Memory:
        q.model = "GPT-3";
        break;
      case QueryKind::Perturb:
        // The resident what-if graph defaults to the bench-sized
        // case study (micro_sim_perf's benchCaseConfig), so the
        // first query against a system stays cheap to compile.
        q.hidden = 8192;
        q.seqLen = 2048;
        q.batch = 1;
        q.tpDegree = 16;
        q.dpDegree = 4;
        break;
      case QueryKind::Stats:
        break;
    }
    // Seed the plan with the kind's tp/dp defaults, so a `parallel`
    // object that omits an axis means "the default".
    q.plan.tpDegree = q.tpDegree;
    q.plan.dpDegree = q.dpDegree;

    for (std::size_t i = 0; i < fields.size(); ++i) {
        const Field &f = fields[i];
        if (f.parent >= 0 || f.key == "kind")
            continue;
        if (f.key == "id") {
            switch (f.type) {
              case Token::Number:
                q.idJson = f.raw;
                break;
              case Token::String:
                q.idJson = json::quote(f.text);
                break;
              default:
                fatal("field 'id' expects a number or a string");
            }
            continue;
        }
        const unsigned kinds = fieldKinds(f.key);
        fatalIf(kinds == 0, "unknown field '", f.key, "'");
        fatalIf((kinds & bit(q.kind)) == 0, "field '", f.key,
                "' does not apply to kind '", kindName(q.kind), "'");
        if (f.key == "hidden")
            q.hidden = intField(f, f.key, 1, std::int64_t{ 1 } << 32);
        else if (f.key == "seqlen")
            q.seqLen = intField(f, f.key, 1, std::int64_t{ 1 } << 32);
        else if (f.key == "batch") {
            q.batch = intField(f, f.key, 1, std::int64_t{ 1 } << 32);
            q.batchSet = true;
        } else if (f.key == "parallel")
            parallelField(fields, i, &q.plan, &q.tpSet);
        else if (f.key == "perturb")
            perturbField(fields, i, &q);
        else if (f.key == "model")
            q.model = stringField(f);
        else if (f.key == "precision")
            q.precision = stringField(f);
        else if (f.key == "ground_truth")
            q.groundTruth = boolField(f, f.key);
        else if (f.key == "device")
            q.device = stringField(f);
        else if (f.key == "flop_scale")
            q.flopScale = doubleField(f, f.key, 1e-6);
        else if (f.key == "bw_scale")
            q.bwScale = doubleField(f, f.key, 1e-6);
        else if (f.key == "pin")
            q.inNetworkReduction = boolField(f, f.key);
        else
            panic("field table out of sync for '", f.key, "'");
    }

    // q.tpDegree / q.dpDegree always mirror the full plan.
    q.tpDegree = q.plan.tpDegree;
    q.dpDegree = q.plan.dpDegree;

    fatalIf(q.kind == QueryKind::Perturb && !q.perturbSet,
            "kind 'perturb' requires the structured 'perturb' "
            "object, e.g. {\"task\": 12, \"scale\": 1.05}");
    fatalIf(q.kind == QueryKind::Perturb &&
                (q.plan.ppDegree > 1 || q.plan.microBatches > 1 ||
                 q.plan.zeroStage > 0 || q.plan.epDegree > 1 ||
                 q.plan.sequenceParallel || !q.plan.overlapDpComm),
            "kind 'perturb' replays the two-stream tp/dp case-study "
            "graph; 'parallel' axes beyond tp/dp are not supported");

    if (q.kind != QueryKind::Stats) {
        // Resolve the device against the catalog now so a typo is a
        // parse-time diagnostic and the cache key uses the canonical
        // catalog spelling.
        q.device = q.device.empty()
                       ? core::SystemConfig{}.device.name
                       : hw::deviceByName(q.device).name;
        precisionFromName(q.precision); // validate the name
    }
    return q;
}

namespace {

/** The plan axes beyond tp/dp (which the per-kind fields already
 *  render), for kinds where a plan applies. */
std::string
planSuffix(const model::ParallelPlan &plan)
{
    std::string s;
    s += "|pp=" + std::to_string(plan.ppDegree);
    s += "|mb=" + std::to_string(plan.microBatches);
    s += "|zero=" + std::to_string(plan.zeroStage);
    s += "|ep=" + std::to_string(plan.epDegree);
    s += plan.sequenceParallel ? "|sp=1" : "|sp=0";
    s += plan.overlapDpComm ? "|ov=1" : "|ov=0";
    return s;
}

} // namespace

std::string
canonicalKey(const Query &query)
{
    if (query.kind == QueryKind::Stats)
        return "";
    std::string key = "v2|";
    key += kindName(query.kind);
    key += "|dev=";
    key += query.device;
    key += "|fs=";
    key += json::number(query.flopScale);
    key += "|bw=";
    key += json::number(query.bwScale);
    key += "|pin=";
    key += query.inNetworkReduction ? '1' : '0';
    switch (query.kind) {
      case QueryKind::Project:
        key += "|h=" + std::to_string(query.hidden);
        key += "|sl=" + std::to_string(query.seqLen);
        key += "|b=" + std::to_string(query.batch);
        key += "|tp=" + std::to_string(query.tpDegree);
        key += "|dp=" + std::to_string(query.dpDegree);
        key += planSuffix(query.plan);
        key += query.groundTruth ? "|gt=1" : "|gt=0";
        break;
      case QueryKind::Slack:
        key += "|h=" + std::to_string(query.hidden);
        key += "|sl=" + std::to_string(query.seqLen);
        key += "|b=" + std::to_string(query.batch);
        break;
      case QueryKind::Analyze:
        key += "|model=" + query.model;
        key += "|tp=" + std::to_string(query.tpDegree);
        key += "|dp=" + std::to_string(query.dpDegree);
        key += planSuffix(query.plan);
        key += "|b=";
        key += query.batchSet ? std::to_string(query.batch) : "zoo";
        key += "|prec=" + query.precision;
        break;
      case QueryKind::Memory:
        key += "|model=" + query.model;
        key += "|tp=";
        key += query.tpSet ? std::to_string(query.tpDegree) : "min";
        key += "|dp=" + std::to_string(query.dpDegree);
        key += planSuffix(query.plan);
        key += "|prec=" + query.precision;
        break;
      case QueryKind::Perturb:
        key += "|h=" + std::to_string(query.hidden);
        key += "|sl=" + std::to_string(query.seqLen);
        key += "|b=" + std::to_string(query.batch);
        key += "|tp=" + std::to_string(query.tpDegree);
        key += "|dp=" + std::to_string(query.dpDegree);
        key += planSuffix(query.plan);
        key += "|task=" + std::to_string(query.perturbTask);
        key += "|scale=" + json::number(query.perturbScale);
        break;
      case QueryKind::Stats:
        break;
    }
    return key;
}

std::uint64_t
fnv1a(std::string_view s)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const char c : s) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

std::string
errorResponseLine(const std::string &idJson, const char *code,
                  const std::string &message,
                  const std::string &extraJson)
{
    std::string line = "{";
    if (!idJson.empty())
        line += "\"id\":" + idJson + ",";
    line += "\"status\":\"error\",\"error\":{\"code\":";
    line += json::quote(code);
    line += ",\"message\":";
    line += json::quote(message);
    if (!extraJson.empty()) {
        line += ',';
        line += extraJson;
    }
    line += "}}";
    return line;
}

} // namespace twocs::svc
