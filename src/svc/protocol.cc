#include "protocol.hh"

#include <cmath>
#include <cstdlib>
#include <utility>
#include <vector>

#include "core/system_config.hh"
#include "hw/catalog.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace twocs::svc {

namespace {

struct Member;

/** One parsed member value of the request object. */
struct JsonValue
{
    enum class Kind { String, Number, Bool, Null, Object } kind;
    std::string str;  //!< String payload (decoded).
    double num = 0.0; //!< Number payload.
    std::string raw;  //!< Verbatim token (numbers, for id echo).
    bool boolean = false;
    /** Nested members (the structured `parallel` object only). */
    std::vector<Member> object;
};

struct Member
{
    std::string key;
    JsonValue value;
    std::size_t offset = 0; //!< Byte offset of the key (diagnostics).
};

/** End of the number token at `start` (the run of [-+.eE0-9] that a
 *  diagnostic or an id echo names), and whether that token is
 *  exactly one RFC 8259 number. */
std::pair<std::size_t, bool>
numberToken(std::string_view text, std::size_t start)
{
    std::size_t end = start;
    while (end < text.size() &&
           std::string_view("-+.eE0123456789").find(text[end]) !=
               std::string_view::npos)
        ++end;
    const json::Scan scan = json::scanNumber(text, start);
    return { end, scan.error == nullptr && scan.end == end };
}

/**
 * A strict parser for exactly the protocol's shape: one JSON object
 * of string/number/bool/null members, flat except for the single
 * structured `parallel` object (whose own members must be scalars).
 * Any other nested container is rejected — a request has no business
 * containing them, and the restriction keeps the error surface small
 * and the diagnostics exact.
 */
class FlatObjectParser
{
  public:
    explicit FlatObjectParser(const std::string &text) : text_(text) {}

    std::vector<Member> parse()
    {
        skipSpace();
        std::vector<Member> members =
            parseObject("a request must be one JSON object",
                        /*nested=*/false);
        trailingGarbageCheck();
        return members;
    }

  private:
    std::vector<Member> parseObject(const std::string &open_what,
                                    bool nested)
    {
        std::vector<Member> members;
        expect('{', open_what);
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return members;
        }
        while (true) {
            skipSpace();
            Member m;
            m.offset = pos_;
            if (peek() != '"')
                syntaxError(pos_, "expected a quoted member key");
            m.key = parseString();
            for (const Member &seen : members) {
                fatalIf(seen.key == m.key, "duplicate field '", m.key,
                        "'");
            }
            skipSpace();
            expect(':', "expected ':' after key '" + m.key + "'");
            skipSpace();
            m.value = parseValue(m.key, nested);
            members.push_back(std::move(m));
            skipSpace();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            expect('}', "expected ',' or '}' after field '" +
                            members.back().key + "'");
            break;
        }
        return members;
    }
    char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

    void skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\r'))
            ++pos_;
    }

    /** Throw the ParseError for a syntax error at byte `at`. */
    template <typename... Args>
    [[noreturn]] static void syntaxError(std::size_t at, Args &&...what)
    {
        throw ParseError(at, detail::concat("byte ", at, ": ", what...));
    }

    void expect(char c, const std::string &what)
    {
        if (peek() != c)
            syntaxError(pos_, what);
        ++pos_;
    }

    void trailingGarbageCheck()
    {
        skipSpace();
        if (pos_ < text_.size())
            syntaxError(pos_,
                        "trailing content after the request object");
    }

    JsonValue parseValue(const std::string &key, bool nested)
    {
        JsonValue v;
        const char c = peek();
        if (c == '{' && !nested &&
            (key == "parallel" || key == "perturb")) {
            v.kind = JsonValue::Kind::Object;
            v.object = parseObject(
                "expected an object for field '" + key + "'",
                /*nested=*/true);
            return v;
        }
        if (c == '"') {
            v.kind = JsonValue::Kind::String;
            v.str = parseString();
        } else if (c == 't' || c == 'f') {
            v.kind = JsonValue::Kind::Bool;
            v.boolean = (c == 't');
            const char *word = v.boolean ? "true" : "false";
            for (const char *p = word; *p != '\0'; ++p)
                expect(*p, std::string("expected '") + word + "'");
        } else if (c == 'n') {
            v.kind = JsonValue::Kind::Null;
            for (const char *p = "null"; *p != '\0'; ++p)
                expect(*p, "expected 'null'");
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            v.kind = JsonValue::Kind::Number;
            const std::size_t start = pos_;
            const auto [end, valid] = numberToken(text_, start);
            pos_ = end;
            v.raw = text_.substr(start, end - start);
            v.num = valid ? std::strtod(v.raw.c_str(), nullptr) : 0.0;
            if (!valid || !std::isfinite(v.num))
                syntaxError(start, "'", v.raw,
                            "' is not a valid JSON number");
        } else if (c == '{' || c == '[') {
            syntaxError(pos_, "field '", key,
                        "' must be a scalar (the only structured "
                        "fields are the top-level 'parallel' and "
                        "'perturb' objects)");
        } else {
            syntaxError(pos_, "expected a value for field '", key, "'");
        }
        return v;
    }

    std::string parseString()
    {
        expect('"', "expected '\"'");
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                throw ParseError(pos_, "unterminated string (started "
                                       "before byte " +
                                           std::to_string(pos_) + ")");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                if (static_cast<unsigned char>(c) < 0x20)
                    syntaxError(pos_ - 1,
                                "raw control character in string");
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                syntaxError(pos_, "dangling escape");
            const char e = text_[pos_++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out += e;
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u':
                out += parseUnicodeEscape();
                break;
              default:
                syntaxError(pos_ - 1, "unknown escape '\\", e, "'");
            }
        }
    }

    std::string parseUnicodeEscape()
    {
        if (pos_ + 4 > text_.size())
            syntaxError(pos_, "truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
                cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                cp |= static_cast<unsigned>(h - 'A' + 10);
            else
                syntaxError(pos_ - 1, "bad hex digit in \\u escape");
        }
        if (cp >= 0xd800 && cp <= 0xdfff)
            syntaxError(pos_ - 6,
                        "surrogate \\u escapes are not supported");
        // UTF-8 encode the basic-plane code point.
        std::string out;
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
        return out;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

QueryKind
kindFromName(const std::string &name)
{
    if (name == "project")
        return QueryKind::Project;
    if (name == "analyze")
        return QueryKind::Analyze;
    if (name == "slack")
        return QueryKind::Slack;
    if (name == "memory")
        return QueryKind::Memory;
    if (name == "perturb")
        return QueryKind::Perturb;
    if (name == "stats")
        return QueryKind::Stats;
    fatal("unknown kind '", name,
          "' (project|analyze|slack|memory|perturb|stats)");
}

/** Whether `key` is a protocol field at all (any kind). */
bool
knownField(const std::string &key)
{
    for (const char *name :
         { "hidden", "seqlen", "batch", "parallel",
           "perturb", "model", "precision", "ground_truth", "device",
           "flop_scale", "bw_scale", "pin" }) {
        if (key == name)
            return true;
    }
    return false;
}

/** Which fields each kind accepts (beyond `kind` and `id`). */
bool
fieldAppliesTo(const std::string &key, QueryKind kind)
{
    auto any = [&](std::initializer_list<QueryKind> kinds) {
        for (const QueryKind k : kinds) {
            if (k == kind)
                return true;
        }
        return false;
    };
    using enum QueryKind;
    if (key == "hidden" || key == "seqlen")
        return any({ Project, Slack, Perturb });
    if (key == "batch")
        return any({ Project, Slack, Analyze, Perturb });
    if (key == "parallel")
        return any({ Project, Analyze, Memory, Perturb });
    if (key == "perturb")
        return any({ Perturb });
    if (key == "model" || key == "precision")
        return any({ Analyze, Memory });
    if (key == "ground_truth")
        return any({ Project });
    if (key == "device" || key == "flop_scale" || key == "bw_scale" ||
        key == "pin")
        return any({ Project, Analyze, Slack, Memory, Perturb });
    return false;
}

std::int64_t
intField(const Member &m, std::int64_t lo, std::int64_t hi)
{
    fatalIf(m.value.kind != JsonValue::Kind::Number, "field '", m.key,
            "' expects a number");
    const double v = m.value.num;
    fatalIf(v != std::floor(v) || std::fabs(v) > 9.007199254740992e15,
            "field '", m.key, "' expects an integer, got ",
            m.value.raw);
    const auto i = static_cast<std::int64_t>(v);
    fatalIf(i < lo || i > hi, "field '", m.key, "' must be in [", lo,
            ", ", hi, "], got ", i);
    return i;
}

double
doubleField(const Member &m, double lo)
{
    fatalIf(m.value.kind != JsonValue::Kind::Number, "field '", m.key,
            "' expects a number");
    fatalIf(m.value.num < lo, "field '", m.key, "' must be >= ", lo,
            ", got ", m.value.raw);
    return m.value.num;
}

std::string
stringField(const Member &m)
{
    fatalIf(m.value.kind != JsonValue::Kind::String, "field '", m.key,
            "' expects a string");
    return m.value.str;
}

bool
boolField(const Member &m)
{
    fatalIf(m.value.kind != JsonValue::Kind::Bool, "field '", m.key,
            "' expects true or false");
    return m.value.boolean;
}

/**
 * Apply the structured `parallel` object's members onto `plan`
 * (already seeded with the kind's defaults). Sets `*tp_named` when
 * the object spells out `tp`, which is what flips memory queries from
 * minimum-TP mode to footprint-at-TP mode.
 */
void
parallelField(const Member &m, model::ParallelPlan *plan,
              bool *tp_named)
{
    fatalIf(m.value.kind != JsonValue::Kind::Object,
            "field 'parallel' expects an object, e.g. "
            "{\"tp\": 8, \"pp\": 4, \"dp\": 2, \"zero\": 1}");
    for (const Member &sub : m.value.object) {
        // Re-key diagnostics as 'parallel.tp' etc. so they name the
        // member's full path.
        Member named = sub;
        named.key = "parallel." + sub.key;
        if (sub.key == "tp") {
            plan->tpDegree =
                static_cast<int>(intField(named, 1, 1 << 20));
            *tp_named = true;
        } else if (sub.key == "pp")
            plan->ppDegree =
                static_cast<int>(intField(named, 1, 1 << 20));
        else if (sub.key == "micro")
            plan->microBatches =
                static_cast<int>(intField(named, 1, 1 << 20));
        else if (sub.key == "dp")
            plan->dpDegree =
                static_cast<int>(intField(named, 1, 1 << 20));
        else if (sub.key == "zero")
            plan->zeroStage = static_cast<int>(intField(named, 0, 3));
        else if (sub.key == "ep")
            plan->epDegree =
                static_cast<int>(intField(named, 1, 1 << 20));
        else if (sub.key == "sp")
            plan->sequenceParallel = boolField(named);
        else if (sub.key == "overlap")
            plan->overlapDpComm = boolField(named);
        else
            fatal("unknown field 'parallel.", sub.key,
                  "' (tp|pp|micro|dp|zero|ep|sp|overlap)");
    }
}

/** Apply the structured `perturb` object: the what-if task id and
 *  its duration multiplier. */
void
perturbField(const Member &m, Query *q)
{
    fatalIf(m.value.kind != JsonValue::Kind::Object,
            "field 'perturb' expects an object, e.g. "
            "{\"task\": 12, \"scale\": 1.05}");
    bool task_named = false;
    for (const Member &sub : m.value.object) {
        Member named = sub;
        named.key = "perturb." + sub.key;
        if (sub.key == "task") {
            q->perturbTask =
                intField(named, 0, std::int64_t{ 1 } << 32);
            task_named = true;
        } else if (sub.key == "scale")
            q->perturbScale = doubleField(named, 0.0);
        else
            fatal("unknown field 'perturb.", sub.key,
                  "' (task|scale)");
    }
    fatalIf(!task_named, "field 'perturb' requires 'task'");
    q->perturbSet = true;
}

} // namespace

const char *
kindName(QueryKind kind)
{
    switch (kind) {
      case QueryKind::Project:
        return "project";
      case QueryKind::Analyze:
        return "analyze";
      case QueryKind::Slack:
        return "slack";
      case QueryKind::Memory:
        return "memory";
      case QueryKind::Perturb:
        return "perturb";
      case QueryKind::Stats:
        return "stats";
    }
    panic("unreachable query kind");
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
    const std::vector<Member> members =
        FlatObjectParser(line).parse();

    const Member *kind_member = nullptr;
    for (const Member &m : members) {
        if (m.key == "kind")
            kind_member = &m;
    }
    fatalIf(kind_member == nullptr, "request is missing the 'kind' "
            "field");

    Query q;
    q.kind = kindFromName(stringField(*kind_member));

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

    for (const Member &m : members) {
        if (m.key == "kind")
            continue;
        if (m.key == "id") {
            switch (m.value.kind) {
              case JsonValue::Kind::Number:
                q.idJson = m.value.raw;
                break;
              case JsonValue::Kind::String:
                q.idJson = json::quote(m.value.str);
                break;
              default:
                fatal("field 'id' expects a number or a string");
            }
            continue;
        }
        fatalIf(!knownField(m.key), "unknown field '", m.key, "'");
        fatalIf(!fieldAppliesTo(m.key, q.kind), "field '", m.key,
                "' does not apply to kind '", kindName(q.kind), "'");
        if (m.key == "hidden")
            q.hidden = intField(m, 1, std::int64_t{ 1 } << 32);
        else if (m.key == "seqlen")
            q.seqLen = intField(m, 1, std::int64_t{ 1 } << 32);
        else if (m.key == "batch") {
            q.batch = intField(m, 1, std::int64_t{ 1 } << 32);
            q.batchSet = true;
        } else if (m.key == "parallel")
            parallelField(m, &q.plan, &q.tpSet);
        else if (m.key == "perturb")
            perturbField(m, &q);
        else if (m.key == "model")
            q.model = stringField(m);
        else if (m.key == "precision")
            q.precision = stringField(m);
        else if (m.key == "ground_truth")
            q.groundTruth = boolField(m);
        else if (m.key == "device")
            q.device = stringField(m);
        else if (m.key == "flop_scale")
            q.flopScale = doubleField(m, 1e-6);
        else if (m.key == "bw_scale")
            q.bwScale = doubleField(m, 1e-6);
        else if (m.key == "pin")
            q.inNetworkReduction = boolField(m);
        else
            panic("field table out of sync for '", m.key, "'");
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
tryExtractIdJson(const std::string &line)
{
    const std::size_t key = line.find("\"id\"");
    if (key == std::string::npos)
        return "";
    std::size_t p = key + 4;
    while (p < line.size() && (line[p] == ' ' || line[p] == '\t'))
        ++p;
    if (p >= line.size() || line[p] != ':')
        return "";
    ++p;
    while (p < line.size() && (line[p] == ' ' || line[p] == '\t'))
        ++p;
    // Echo the raw token only when it is valid JSON on its own.
    if (p < line.size() && line[p] == '"') {
        const json::Scan scan = json::scanString(line, p);
        return scan.error == nullptr ? line.substr(p, scan.end - p) : "";
    }
    const auto [end, valid] = numberToken(line, p);
    return valid ? line.substr(p, end - p) : "";
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
