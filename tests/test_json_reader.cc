/**
 * @file
 * Tests for json::Reader, the one JSON grammar behind `twocs
 * validate` and the svc request parser: its token stream, its
 * nesting cap, and a seeded differential fuzz against the
 * recursive-descent validator it replaced, kept here as the
 * reference oracle. The fuzz mutates the library's own JSON output
 * (RunReport, service metrics, Chrome trace, svc responses) and the
 * svc request lines; every input must get the oracle's accept or
 * reject decision, and every rejection must name a byte inside the
 * input. Run under the asan preset, it also catches out-of-bounds
 * reads.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "exec/parallel_runner.hh"
#include "obs/sinks.hh"
#include "svc/service.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace twocs {
namespace {

using Token = json::Reader::Token;

// --- the reference oracle: the validator json::Reader replaced ---

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

bool
isHex(char c)
{
    return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

/** Where a token scan stopped: one past the token with a null
 *  `error`, or at the first offending byte. */
struct Scan
{
    std::size_t end = 0;
    const char *error = nullptr;
};

Scan
scanString(std::string_view text, std::size_t pos)
{
    if (pos >= text.size() || text[pos] != '"')
        return { pos, "expected '\"'" };
    ++pos;
    for (;;) {
        if (pos >= text.size())
            return { pos, "unterminated string" };
        const unsigned char c = static_cast<unsigned char>(text[pos]);
        if (c < 0x20)
            return { pos, "raw control character in string" };
        ++pos;
        if (c == '"')
            return Scan{ pos, nullptr };
        if (c != '\\')
            continue;
        if (pos >= text.size())
            return { pos, "unterminated escape" };
        const char esc = text[pos++];
        if (esc == 'u') {
            for (int i = 0; i < 4; ++i) {
                if (pos >= text.size() || !isHex(text[pos]))
                    return { pos, "\\u needs four hex digits" };
                ++pos;
            }
        } else if (esc != '"' && esc != '\\' && esc != '/' &&
                   esc != 'b' && esc != 'f' && esc != 'n' &&
                   esc != 'r' && esc != 't') {
            return { pos, "unknown escape" };
        }
    }
}

Scan
scanNumber(std::string_view text, std::size_t pos)
{
    const auto digit = [&] {
        return pos < text.size() && isDigit(text[pos]);
    };
    if (pos < text.size() && text[pos] == '-')
        ++pos;
    if (!digit())
        return { pos, "malformed number" };
    if (text[pos] == '0') {
        ++pos;
    } else {
        while (digit())
            ++pos;
    }
    if (pos < text.size() && text[pos] == '.') {
        ++pos;
        if (!digit())
            return { pos, "digits must follow '.'" };
        while (digit())
            ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
        ++pos;
        if (pos < text.size() && (text[pos] == '+' || text[pos] == '-'))
            ++pos;
        if (!digit())
            return { pos, "digits must follow the exponent" };
        while (digit())
            ++pos;
    }
    return Scan{ pos, nullptr };
}

/** Recursive-descent validator over the RFC 8259 value grammar
 *  (nesting capped at 128 levels); true when `text` is valid. */
class ReferenceValidator
{
  public:
    explicit ReferenceValidator(std::string_view text) : text_(text) {}

    bool
    accepts()
    {
        try {
            skipWs();
            value(0);
            skipWs();
            failIf(pos_ != text_.size());
        } catch (const Reject &) {
            return false;
        }
        return true;
    }

  private:
    struct Reject
    {
    };

    static constexpr int kMaxDepth = 128;

    static void
    failIf(bool cond)
    {
        if (cond)
            throw Reject{};
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    skipWs()
    {
        while (!atEnd() && (peek() == ' ' || peek() == '\t' ||
                            peek() == '\n' || peek() == '\r')) {
            ++pos_;
        }
    }

    void
    expect(char c)
    {
        failIf(atEnd() || peek() != c);
        ++pos_;
    }

    void
    literal(std::string_view word)
    {
        failIf(text_.substr(pos_, word.size()) != word);
        pos_ += word.size();
    }

    void
    value(int depth)
    {
        failIf(depth > kMaxDepth);
        failIf(atEnd());
        switch (peek()) {
          case '{':
            object(depth);
            return;
          case '[':
            array(depth);
            return;
          case '"':
            scan(scanString(text_, pos_));
            return;
          case 't':
            literal("true");
            return;
          case 'f':
            literal("false");
            return;
          case 'n':
            literal("null");
            return;
          default:
            scan(scanNumber(text_, pos_));
        }
    }

    void
    object(int depth)
    {
        expect('{');
        skipWs();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return;
        }
        for (;;) {
            skipWs();
            failIf(atEnd() || peek() != '"');
            scan(scanString(text_, pos_));
            skipWs();
            expect(':');
            skipWs();
            value(depth + 1);
            skipWs();
            failIf(atEnd());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return;
        }
    }

    void
    array(int depth)
    {
        expect('[');
        skipWs();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return;
        }
        for (;;) {
            skipWs();
            value(depth + 1);
            skipWs();
            failIf(atEnd());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return;
        }
    }

    void
    scan(const Scan &token)
    {
        pos_ = token.end;
        failIf(token.error != nullptr);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

// --- the reader's own contract ---

TEST(JsonReader, TokensCarryTheirOffsetAndRawText)
{
    const std::string text =
        " {\"a\\n\": [1.5e3, true, null], \"b\": {\"c\": \"x\\u00e9\"}} ";
    json::Reader reader(text);
    const std::vector<std::pair<Token, std::string>> expected = {
        { Token::ObjectBegin, "{" }, { Token::Key, "\"a\\n\"" },
        { Token::ArrayBegin, "[" },  { Token::Number, "1.5e3" },
        { Token::True, "true" },     { Token::Null, "null" },
        { Token::ArrayEnd, "]" },    { Token::Key, "\"b\"" },
        { Token::ObjectBegin, "{" }, { Token::Key, "\"c\"" },
        { Token::String, "\"x\\u00e9\"" },
        { Token::ObjectEnd, "}" },   { Token::ObjectEnd, "}" },
    };
    for (const auto &[token, raw] : expected) {
        ASSERT_EQ(reader.next(), token) << raw;
        EXPECT_EQ(reader.raw(), raw);
        EXPECT_EQ(text.substr(reader.offset(), raw.size()), raw);
    }
    EXPECT_EQ(reader.next(), Token::End);
    EXPECT_EQ(reader.next(), Token::End);

    std::string decoded;
    EXPECT_EQ(json::unescape("x\\u00e9\\n\\/", &decoded),
              std::string_view::npos);
    EXPECT_EQ(decoded, "x\xc3\xa9\n/");
    decoded.clear();
    EXPECT_EQ(json::unescape("ab\\ud800cd", &decoded), 2u);
    EXPECT_EQ(decoded, "ab");
}

TEST(JsonReader, FaultsNameTheirByte)
{
    const std::pair<const char *, std::string> cases[] = {
        { "{\"a\" 1}", "byte 5: invalid JSON: expected ':' after "
                       "object key" },
        { "[1,]", "byte 3: invalid JSON: expected a value" },
        { "[01]", "byte 1: invalid JSON: malformed number" },
        { "{\"a\":1", "byte 6: invalid JSON: unterminated object" },
        { "\"\\q\"", "byte 2: invalid JSON: unknown escape" },
        { "tru", "byte 3: invalid JSON: unknown literal" },
        { "1 2", "byte 2: invalid JSON: trailing content" },
        { "", "byte 0: invalid JSON: unexpected end of input" },
    };
    for (const auto &[text, message] : cases) {
        try {
            json::validate(text);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const FatalError &e) {
            EXPECT_EQ(e.what(), message) << text;
        }
    }
}

TEST(JsonReader, NestingIsCappedAt128Containers)
{
    const auto nested = [](std::size_t depth) {
        return std::string(depth, '[') + "1" + std::string(depth, ']');
    };
    EXPECT_NO_THROW(json::validate(nested(128)));
    try {
        json::validate(nested(129));
        ADD_FAILURE() << "129 levels must be rejected";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "byte 129: invalid JSON: nesting too deep");
    }
    // The cap applies to values, not to empty containers.
    EXPECT_NO_THROW(json::validate(std::string(129, '[') +
                                   std::string(129, ']')));
    EXPECT_FALSE(ReferenceValidator(nested(129)).accepts());
    EXPECT_TRUE(ReferenceValidator(nested(128)).accepts());
}

// --- differential fuzz ---

/** The library's own JSON output plus the svc request lines. */
std::vector<std::string>
seedDocuments()
{
    std::vector<std::string> docs;

    exec::RunReport report;
    report.study = "fuzz \"study\"\n";
    report.jobs = 4;
    report.numTasks = 3;
    report.wallTime = 0.125;
    report.taskSeconds = { 1e-3, 2.5e-4, 7.0 };
    report.failures = { { 1, "bad config: tp=\t3 \\ 'x'" } };
    std::ostringstream report_json;
    report.writeJson(report_json);
    docs.push_back(report_json.str());

    obs::TraceSnapshot snap;
    snap.laneNames = { "main", "worker \"1\"" };
    obs::SpanRecord span;
    span.label = "work";
    span.path = "work";
    span.args = "tasks=3 note=\"q\"";
    span.category = obs::Category::Exec;
    span.startNs = 1500;
    span.durNs = 2500;
    snap.spans = { span };
    std::ostringstream trace;
    obs::writeChromeTrace(snap, trace);
    docs.push_back(trace.str());

    const std::vector<std::string> requests = {
        "{\"id\": 1, \"kind\": \"project\", \"hidden\": 65536, "
        "\"seqlen\": 4096, \"batch\": 2, \"parallel\": {\"tp\": 256, "
        "\"pp\": 4, \"zero\": 1}, \"flop_scale\": 4}",
        "{\"id\": \"a\\u00e9\", \"kind\": \"analyze\", \"model\": "
        "\"GPT-3\", \"parallel\": {\"tp\": 8, \"dp\": 4}, "
        "\"precision\": \"bf16\"}",
        "{\"kind\": \"slack\", \"hidden\": 8192, \"bw_scale\": 2.5e-1, "
        "\"pin\": true}",
        "{\"kind\": \"memory\", \"model\": \"GPT-3\", \"parallel\": "
        "{\"tp\": 8, \"sp\": false}}",
        "{\"kind\": \"perturb\", \"hidden\": 4096, \"parallel\": "
        "{\"tp\": 4, \"dp\": 2}, \"perturb\": {\"task\": 12, "
        "\"scale\": 1.05}}",
        "{\"id\": -0, \"kind\": \"frobnicate\"}",
        "{\"kind\": \"stats\", \"id\": null}",
    };
    svc::QueryService service;
    for (const std::string &line : requests) {
        docs.push_back(line);
        docs.push_back(service.handle(line));
    }
    docs.push_back(service.handle("{\"kind\": \"stats\"}"));
    std::ostringstream metrics;
    service.metrics().writeJson(metrics);
    docs.push_back(metrics.str());

    docs.push_back("[[], {}, [[[\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"]]], "
                   "-1.5E+10, 0, 1e-7, true, false, null]");
    return docs;
}

/** Fragments spliced into documents: tokens and near-tokens. */
const std::vector<std::string> &
fragments()
{
    static const std::vector<std::string> pieces = {
        ",", ":", "{", "}", "[", "]", "\"", "\\", "\\u12", "\\ud800",
        "01", "1.", "-", "1e", "1e999", "tru", "null", "\"k\": 1",
        "[1, 2]", " ", "\n", "\t", "\x01", "\xc3\xa9",
    };
    return pieces;
}

std::string
mutate(std::string text, Rng &rng)
{
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.nextU64() % n);
    };
    switch (pick(5)) {
      case 0: // flip one byte to an arbitrary value
        if (!text.empty())
            text[pick(text.size())] =
                static_cast<char>(rng.nextU64() & 0xff);
        break;
      case 1: // truncate
        text.resize(pick(text.size() + 1));
        break;
      case 2: // splice a fragment in at an arbitrary byte
        text.insert(pick(text.size() + 1),
                    fragments()[pick(fragments().size())]);
        break;
      case 3: // delete one byte
        if (!text.empty())
            text.erase(pick(text.size()), 1);
        break;
      case 4: // insert whitespace (valid stays valid between tokens)
        text.insert(pick(text.size() + 1), " ");
        break;
    }
    return text;
}

TEST(JsonReaderFuzz, AgreesWithTheReferenceValidator)
{
    const std::vector<std::string> seeds = seedDocuments();
    for (const std::string &doc : seeds)
        ASSERT_TRUE(ReferenceValidator(doc).accepts()) << doc;

    Rng rng(20261019);
    int accepted = 0, rejected = 0;
    for (int round = 0; round < 12000; ++round) {
        std::string text =
            seeds[static_cast<std::size_t>(rng.nextU64() % seeds.size())];
        const int depth = static_cast<int>(rng.nextU64() % 4);
        for (int k = 0; k < depth; ++k)
            text = mutate(std::move(text), rng);

        const bool expected = ReferenceValidator(text).accepts();
        json::Reader reader(text);
        Token token = Token::ObjectBegin;
        while (token != Token::End && token != Token::Error) {
            token = reader.next();
            ASSERT_LE(reader.offset(), text.size()) << text;
            ASSERT_LE(reader.raw().size(), text.size() - reader.offset())
                << text;
        }
        if (token == Token::Error) {
            EXPECT_LE(reader.errorOffset(), text.size()) << text;
        }
        EXPECT_EQ(token == Token::End, expected)
            << (expected ? "rejected" : "accepted") << ": " << text;
        (expected ? accepted : rejected)++;
    }
    EXPECT_GT(accepted, 1000);
    EXPECT_GT(rejected, 1000);
}

} // namespace
} // namespace twocs
