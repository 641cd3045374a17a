#include "stream.hh"

#include <istream>
#include <ostream>

#include "net/framer.hh"
#include "svc/protocol.hh"

namespace twocs::net {

std::string
overlongResponseLine(std::size_t lineNo, std::size_t droppedBytes,
                     std::size_t capBytes)
{
    const std::string message =
        "line " + std::to_string(lineNo) + ": request line of " +
        std::to_string(droppedBytes) +
        " bytes exceeds --max-line-bytes " +
        std::to_string(capBytes) + "; dropped to the next newline";
    return svc::errorResponseLine("", "line_too_long", message);
}

StreamStats
serveStream(svc::QueryService &service, std::istream &in,
            std::ostream &out, std::size_t maxLineBytes)
{
    LineFramer framer(maxLineBytes);
    StreamStats stats;
    svc::QueryService::NumberedLines batch;
    const std::size_t batchCapacity =
        service.options().batchCapacity;
    std::size_t lineNo = 0;

    const auto flushBatch = [&] {
        if (batch.empty())
            return;
        service.processLines(std::move(batch), out);
        batch.clear();
    };

    const auto handleFrame = [&](Frame &&frame) {
        ++lineNo;
        ++stats.lines;
        if (frame.kind == Frame::Kind::Overlong) {
            ++stats.overlongLines;
            // Arrival order: everything queued before this line
            // must answer before its error does.
            flushBatch();
            out << overlongResponseLine(lineNo, frame.droppedBytes,
                                        maxLineBytes)
                << "\n";
            return;
        }
        if (frame.text.find_first_not_of(" \t\r") ==
            std::string::npos)
            return;
        batch.emplace_back(lineNo, std::move(frame.text));
        if (batch.size() >= batchCapacity)
            flushBatch();
    };

    char buf[1u << 16];
    Frame frame;
    while (in.read(buf, sizeof buf), in.gcount() > 0) {
        framer.feed(buf, static_cast<std::size_t>(in.gcount()));
        while (framer.pop(frame))
            handleFrame(std::move(frame));
    }
    while (framer.finish(frame))
        handleFrame(std::move(frame));
    flushBatch();
    out.flush();

    service.writeMetricsIfConfigured();
    return stats;
}

} // namespace twocs::net
