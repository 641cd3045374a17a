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
#include <cstdint>
#include <iosfwd>
#include <string>

#include "svc/service.hh"

namespace twocs::net {

/** What one serveStream() pass saw (exit-report material). */
struct StreamStats
{
    std::uint64_t lines = 0;
    std::uint64_t overlongLines = 0;
};

/**
 * Serve a whole byte stream: frame it, batch it through `service`,
 * answer overlong lines with the structured error, write the
 * metrics file on completion (when configured). One response line
 * per request line, in arrival order.
 */
StreamStats serveStream(svc::QueryService &service, std::istream &in,
                        std::ostream &out,
                        std::size_t maxLineBytes);

/**
 * The deterministic `line_too_long` response both serve paths emit
 * for a line dropped by the framer's cap.
 */
std::string overlongResponseLine(std::size_t lineNo,
                                 std::size_t droppedBytes,
                                 std::size_t capBytes);

} // namespace twocs::net

#endif // TWOCS_NET_STREAM_HH
