/**
 * @file
 * The library's one JSON layer: writing helpers and one reader.
 *
 * Every JSON emitter in the library — obs::Metrics and its
 * JsonWriter (the `--metrics` and `--report` files), the Chrome-trace
 * export and the svc query protocol — must agree on how strings are escaped and how doubles are rendered
 * (shortest round-trippable `%.17g`, so byte-identical output is a
 * meaningful determinism contract); escape() and number() are that
 * single definition.
 *
 * Every JSON input goes through json::Reader, the one RFC 8259
 * grammar: validate() (`twocs validate`) drains it and svc::parseQuery
 * drives it. The reader owns the syntax diagnostics — what is wrong
 * (a Reader::Error) and where (a byte offset); each caller owns the
 * wording: validate() prints `byte N: invalid JSON: <message()>`,
 * svc its own messages naming the member (`byte 8: expected ':' after
 * key 'kind'`). Protocol rules beyond the grammar — finite numbers,
 * no surrogate escapes, what may nest, no duplicate keys — are svc's,
 * and so is the id echo of a failed request: its top-level `id` if
 * the reader accepted that member before the failure.
 */

#ifndef TWOCS_UTIL_JSON_HH
#define TWOCS_UTIL_JSON_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace twocs::json {

/**
 * Escape `s` for inclusion inside a JSON string literal (the
 * surrounding quotes are not added). Quotes and backslashes get a
 * backslash, the common control characters use their short escapes
 * (\b \f \n \r \t), and any other byte below 0x20 becomes \u00XX.
 */
std::string escape(std::string_view s);

/** `s` escaped and wrapped in double quotes. */
std::string quote(std::string_view s);

/**
 * Shortest round-trippable decimal form of a double (`%.17g`), the
 * number format shared by every JSON emitter in the library.
 */
std::string number(double v);

/**
 * A pull tokenizer over one JSON text (one value, whitespace around
 * it). next() returns the next token; offset() and raw() are views
 * into the input, which must outlive the reader. Nothing is decoded:
 * strings keep their quotes and escapes (unescape() decodes on
 * demand). `\uXXXX` needs four hex digits (surrogate pairing is not
 * checked) and at most kMaxDepth containers may enclose a value. The
 * first fault is Token::Error, which next() then keeps returning.
 */
class Reader
{
  public:
    enum class Token : std::uint8_t
    {
        ObjectBegin, ObjectEnd, ArrayBegin, ArrayEnd,
        Key, String, Number, True, False, Null,
        End,  //!< The value and its trailing whitespace are consumed.
        Error //!< See error() and errorOffset().
    };

    /** A syntax fault; message() words each for validate(). */
    enum class Error : std::uint8_t
    {
        None, UnexpectedEnd, ExpectedValue, BadLiteral, BadNumber,
        ExpectedKey, ExpectedColon, ExpectedCommaOrBrace,
        UnterminatedObject, ExpectedCommaOrBracket, UnterminatedArray,
        UnterminatedString, ControlCharacter, DanglingEscape,
        UnknownEscape, TruncatedEscape, BadHexDigit, TooDeep,
        TrailingContent
    };

    /** Most containers that may enclose a value. */
    static constexpr std::size_t kMaxDepth = 128;

    explicit Reader(std::string_view text) : text_(text) {}

    Token next();

    /** Byte offset of the current token (of the failed one on
     *  Error; the input size at End). */
    std::size_t offset() const { return start_; }

    /** The current token as written. On Error, what the failed token
     *  consumed before the fault (a malformed number: its whole run
     *  of [-+.eE0-9]). */
    std::string_view raw() const
    {
        return text_.substr(start_, end_ - start_);
    }

    Error error() const { return error_; }

    /** The byte a fault names: the offending byte, or for BadNumber
     *  the token start. */
    std::size_t errorOffset() const { return errorAt_; }

    const char *message() const;

  private:
    enum class Expect : std::uint8_t
    {
        Value, FirstKey, Key, Colon, FirstElement, AfterValue, Done
    };

    Token value(char c);
    Token string(Token kind);
    Token literal(std::string_view word, Token kind);
    Token number();
    Token accept(std::size_t end, Token kind);
    Token close(Token kind);
    Token fail(Error error, std::size_t at);

    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t start_ = 0;
    std::size_t end_ = 0;
    std::string open_; //!< One '{' or '[' per open container.
    Expect expect_ = Expect::Value;
    Error error_ = Error::None;
    std::size_t errorAt_ = 0;
};

/**
 * Append to `*out` the UTF-8 decoding of `chars`, a string token
 * without its quotes (or a prefix of one; a trailing incomplete
 * escape is ignored). It stops at the first surrogate `\u` escape
 * and returns that escape's offset in `chars`; npos when there is
 * none.
 */
std::size_t unescape(std::string_view chars, std::string *out);

/**
 * Check that `text` is one JSON value with nothing but whitespace
 * around it (Reader drained to its end); fatal() with `byte N:
 * invalid JSON: <what>` otherwise. Used by `twocs validate` and the
 * tests to check our own emitters without an external dependency.
 */
void validate(std::string_view text);

} // namespace twocs::json

#endif // TWOCS_UTIL_JSON_HH
