/**
 * @file
 * The framed stream backend of `twocs serve` — the stdin path.
 *
 * serveStream() is the degenerate no-socket backend: it drives the
 * same LineFramer the epoll connections use (so the max-line-bytes
 * cap guards both entrances identically) and feeds complete lines
 * into the svc::QueryService batching/cache core through
 * processLines(). For any input where no line exceeds the cap, its
 * output is byte-identical to a plain getline loop over the same
 * stream — the byte-identity tests pin that against the loop they
 * keep as their oracle. An overlong line is answered
 * with the shared `line_too_long` structured error at its arrival
 * position and the stream resynchronizes at the next newline.
 */

#ifndef TWOCS_NET_STREAM_HH
#define TWOCS_NET_STREAM_HH

#include <cstddef>
#include <iosfwd>
#include <string>

#include "obs/metrics.hh"
#include "svc/service.hh"

namespace twocs::net {

/**
 * Serve a whole byte stream: frame it, batch it through `service`,
 * answer overlong lines with the structured error (counted in the
 * service's `overlong_lines`). One response line per request line, in
 * arrival order.
 */
void serveStream(svc::QueryService &service, std::istream &in,
                 std::ostream &out, std::size_t maxLineBytes);

/**
 * Count one line dropped by the framer's cap in `overlong` and return
 * the deterministic `line_too_long` response both serve paths emit
 * for it.
 */
std::string answerOverlong(obs::Counter &overlong, std::size_t lineNo,
                           std::size_t droppedBytes,
                           std::size_t capBytes);

} // namespace twocs::net

#endif // TWOCS_NET_STREAM_HH
