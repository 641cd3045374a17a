#include "json.hh"

#include <cstdio>

#include "util/logging.hh"

namespace twocs::json {

namespace {

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

/** Recursive-descent validator over the RFC 8259 value grammar. */
class Validator
{
  public:
    explicit Validator(std::string_view text) : text_(text) {}

    void
    run()
    {
        skipWs();
        value(0);
        skipWs();
        failIf(pos_ != text_.size(), "trailing content");
    }

  private:
    static constexpr int kMaxDepth = 128;

    [[noreturn]] void
    fail(const char *what) const
    {
        fatal("byte ", pos_, ": invalid JSON: ", what);
    }

    void
    failIf(bool cond, const char *what) const
    {
        if (cond)
            fail(what);
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
    expect(char c, const char *what)
    {
        failIf(atEnd() || peek() != c, what);
        ++pos_;
    }

    void
    literal(std::string_view word)
    {
        failIf(text_.substr(pos_, word.size()) != word,
               "unknown literal");
        pos_ += word.size();
    }

    void
    value(int depth)
    {
        failIf(depth > kMaxDepth, "nesting too deep");
        failIf(atEnd(), "unexpected end of input");
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
        expect('{', "expected '{'");
        skipWs();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return;
        }
        for (;;) {
            skipWs();
            failIf(atEnd() || peek() != '"',
                   "expected a string object key");
            scan(scanString(text_, pos_));
            skipWs();
            expect(':', "expected ':' after object key");
            skipWs();
            value(depth + 1);
            skipWs();
            failIf(atEnd(), "unterminated object");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}', "expected ',' or '}' in object");
            return;
        }
    }

    void
    array(int depth)
    {
        expect('[', "expected '['");
        skipWs();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return;
        }
        for (;;) {
            skipWs();
            value(depth + 1);
            skipWs();
            failIf(atEnd(), "unterminated array");
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']', "expected ',' or ']' in array");
            return;
        }
    }

    void
    scan(const Scan &token)
    {
        pos_ = token.end;
        failIf(token.error != nullptr, token.error);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

} // namespace

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

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
quote(std::string_view s)
{
    return "\"" + escape(s) + "\"";
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

void
validate(std::string_view text)
{
    Validator(text).run();
}

} // namespace twocs::json
