#include "json.hh"

#include <cctype>
#include <charconv>
#include <cstdio>

#include "util/logging.hh"

namespace twocs::json {

namespace {

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

} // namespace

Reader::Token
Reader::next()
{
    if (expect_ == Expect::Done)
        return error_ == Error::None ? Token::End : Token::Error;
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
        ++pos_;
    start_ = end_ = pos_;
    const bool more = pos_ < text_.size();
    const char c = more ? text_[pos_] : '\0';
    switch (expect_) {
      case Expect::FirstKey:
        if (c == '}')
            return close(Token::ObjectEnd);
        [[fallthrough]];
      case Expect::Key:
        return c == '"' ? string(Token::Key)
                        : fail(Error::ExpectedKey, pos_);
      case Expect::Colon:
        if (c != ':')
            return fail(Error::ExpectedColon, pos_);
        ++pos_;
        expect_ = Expect::Value;
        return next();
      case Expect::FirstElement:
        if (c == ']')
            return close(Token::ArrayEnd);
        [[fallthrough]];
      case Expect::Value:
        return value(c);
      default: // AfterValue
        break;
    }
    if (open_.empty()) {
        if (more)
            return fail(Error::TrailingContent, pos_);
        expect_ = Expect::Done;
        return Token::End;
    }
    const bool object = open_.back() == '{';
    if (c == ',') {
        ++pos_;
        expect_ = object ? Expect::Key : Expect::Value;
        return next();
    }
    if (object) {
        return c == '}' ? close(Token::ObjectEnd)
                        : fail(more ? Error::ExpectedCommaOrBrace
                                    : Error::UnterminatedObject,
                               pos_);
    }
    return c == ']' ? close(Token::ArrayEnd)
                    : fail(more ? Error::ExpectedCommaOrBracket
                                : Error::UnterminatedArray,
                           pos_);
}

Reader::Token
Reader::value(char c)
{
    if (open_.size() > kMaxDepth)
        return fail(Error::TooDeep, pos_);
    if (pos_ >= text_.size())
        return fail(Error::UnexpectedEnd, pos_);
    switch (c) {
      case '{':
      case '[':
        open_ += c;
        end_ = ++pos_;
        expect_ = c == '{' ? Expect::FirstKey : Expect::FirstElement;
        return c == '{' ? Token::ObjectBegin : Token::ArrayBegin;
      case '"':
        return string(Token::String);
      case 't':
        return literal("true", Token::True);
      case 'f':
        return literal("false", Token::False);
      case 'n':
        return literal("null", Token::Null);
      default:
        return c == '-' || isDigit(c) ? number()
                                      : fail(Error::ExpectedValue, pos_);
    }
}

Reader::Token
Reader::string(Token kind)
{
    std::size_t p = pos_ + 1; // past the opening quote
    for (;;) {
        if (p >= text_.size())
            return fail(Error::UnterminatedString, p);
        const auto c = static_cast<unsigned char>(text_[p]);
        if (c < 0x20)
            return fail(Error::ControlCharacter, p);
        ++p;
        if (c == '"')
            return accept(p, kind);
        if (c != '\\')
            continue;
        if (p >= text_.size())
            return fail(Error::DanglingEscape, p);
        if (text_[p] != 'u') {
            if (std::string_view("\"\\/bfnrt").find(text_[p]) ==
                std::string_view::npos)
                return fail(Error::UnknownEscape, p);
            ++p;
            continue;
        }
        if (text_.size() - p - 1 < 4)
            return fail(Error::TruncatedEscape, p + 1);
        for (std::size_t i = 1; i <= 4; ++i) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[p + i])))
                return fail(Error::BadHexDigit, p + i);
        }
        p += 5;
    }
}

Reader::Token
Reader::literal(std::string_view word, Token kind)
{
    for (std::size_t i = 0; i < word.size(); ++i) {
        if (pos_ + i >= text_.size() || text_[pos_ + i] != word[i])
            return fail(Error::BadLiteral, pos_ + i);
    }
    return accept(pos_ + word.size(), kind);
}

Reader::Token
Reader::number()
{
    // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and no further
    // number character: such a run is one malformed token, never a
    // number followed by junk.
    std::size_t p = pos_;
    const auto skip = [&](std::string_view set) {
        const bool hit = p < text_.size() &&
                         set.find(text_[p]) != std::string_view::npos;
        p += hit;
        return hit;
    };
    const auto digits = [&] {
        const std::size_t from = p;
        while (p < text_.size() && isDigit(text_[p]))
            ++p;
        return p > from;
    };
    skip("-");
    bool ok = skip("0") || digits();
    if (ok && skip("."))
        ok = digits();
    if (ok && skip("eE")) {
        skip("+-");
        ok = digits();
    }
    std::size_t run = p;
    while (run < text_.size() &&
           std::string_view("+-.eE0123456789").find(text_[run]) !=
               std::string_view::npos)
        ++run;
    if (ok && run == p)
        return accept(p, Token::Number);
    fail(Error::BadNumber, pos_);
    end_ = run;
    return Token::Error;
}

Reader::Token
Reader::accept(std::size_t end, Token kind)
{
    pos_ = end_ = end;
    expect_ = kind == Token::Key ? Expect::Colon : Expect::AfterValue;
    return kind;
}

Reader::Token
Reader::close(Token kind)
{
    open_.pop_back();
    return accept(pos_ + 1, kind);
}

Reader::Token
Reader::fail(Error error, std::size_t at)
{
    error_ = error;
    errorAt_ = end_ = at;
    expect_ = Expect::Done;
    return Token::Error;
}

const char *
Reader::message() const
{
    // In Error order.
    static constexpr const char *kMessages[] = {
        "no error", "unexpected end of input", "expected a value",
        "unknown literal", "malformed number",
        "expected a string object key", "expected ':' after object key",
        "expected ',' or '}' in object", "unterminated object",
        "expected ',' or ']' in array", "unterminated array",
        "unterminated string", "raw control character in string",
        "dangling escape", "unknown escape", "truncated \\u escape",
        "bad hex digit in \\u escape", "nesting too deep",
        "trailing content",
    };
    return kMessages[static_cast<std::size_t>(error_)];
}

std::size_t
unescape(std::string_view chars, std::string *out)
{
    std::size_t i = 0;
    while (i < chars.size()) {
        if (chars[i] != '\\') {
            out->push_back(chars[i++]);
            continue;
        }
        if (i + 1 >= chars.size())
            break;
        const char esc = chars[i + 1];
        if (esc != 'u') {
            const std::size_t at =
                std::string_view("\"\\/bfnrt").find(esc);
            if (at == std::string_view::npos)
                break;
            out->push_back("\"\\/\b\f\n\r\t"[at]);
            i += 2;
            continue;
        }
        unsigned cp = 0;
        const char *hex = chars.data() + i + 2;
        if (chars.size() - i < 6 ||
            std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4)
            break;
        if (cp >= 0xd800 && cp <= 0xdfff)
            return i;
        if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        } else {
            out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out->push_back(
                static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
        }
        i += 6;
    }
    return std::string_view::npos;
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
    Reader reader(text);
    for (Reader::Token token = reader.next(); token != Reader::Token::End;
         token = reader.next()) {
        if (token == Reader::Token::Error)
            fatal("byte ", reader.errorOffset(), ": invalid JSON: ",
                  reader.message());
    }
}

} // namespace twocs::json
