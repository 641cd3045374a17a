/**
 * @file
 * Shared JSON text-writing helpers.
 *
 * Every JSON emitter in the library — the exec RunReport, the
 * Chrome-trace export, the svc query protocol and metrics registry —
 * must agree on two things: how strings are escaped (quotes,
 * backslashes, control characters) and how doubles are rendered
 * (shortest round-trippable `%.17g` form, so byte-identical output
 * is a meaningful determinism contract). This header is that single
 * definition.
 */

#ifndef TWOCS_UTIL_JSON_HH
#define TWOCS_UTIL_JSON_HH

#include <cstddef>
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

/** Where a token scan stopped: one past the token with a null
 *  `error`, or at the first offending byte with what is wrong. */
struct Scan
{
    std::size_t end = 0;
    const char *error = nullptr;
};

/** Scan the RFC 8259 number at text[pos]: the one number grammar,
 *  shared by validate() and the svc request parser. */
Scan scanNumber(std::string_view text, std::size_t pos);

/** Scan the JSON string literal at text[pos], as validate() does. */
Scan scanString(std::string_view text, std::size_t pos);

/**
 * Strictly validate that `text` is one well-formed JSON value
 * (object, array, string, number, true/false/null) with nothing but
 * whitespace around it; fatal() with a byte offset otherwise. Used
 * by `twocs validate` and the tests to check our own emitters
 * (trace files, reports) without an external JSON dependency.
 * Escapes are checked syntactically (`\uXXXX` needs four hex
 * digits; surrogate pairing is not enforced). Nesting is capped at
 * 128 levels.
 */
void validate(std::string_view text);

} // namespace twocs::json

#endif // TWOCS_UTIL_JSON_HH
