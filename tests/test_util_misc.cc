#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "util/interner.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/units.hh"

namespace twocs {
namespace {

// --- logging ---

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config: ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant broken"), PanicError);
}

TEST(Logging, FatalCarriesMessage)
{
    try {
        fatal("value was ", 7, ", expected ", 9);
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "value was 7, expected 9");
    }
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "never"));
    EXPECT_THROW(fatalIf(true, "always"), FatalError);
    EXPECT_NO_THROW(panicIf(false, "never"));
    EXPECT_THROW(panicIf(true, "always"), PanicError);
}

TEST(Logging, FatalErrorIsNotPanicError)
{
    // The two error classes must stay distinguishable: fatal is a
    // user error, panic is a library bug.
    try {
        fatal("user error");
    } catch (const PanicError &) {
        FAIL() << "fatal() threw PanicError";
    } catch (const FatalError &) {
        SUCCEED();
    }
}

// --- units ---

TEST(Units, FormatSecondsPicksPrefix)
{
    EXPECT_EQ(formatSeconds(1.5), "1.500 s");
    EXPECT_EQ(formatSeconds(0.0032), "3.200 ms");
    EXPECT_EQ(formatSeconds(4.2e-6), "4.200 us");
    EXPECT_EQ(formatSeconds(7e-9), "7.000 ns");
}

TEST(Units, FormatBytesUsesBinaryPrefixes)
{
    EXPECT_EQ(formatBytes(512.0), "512.00 B");
    EXPECT_EQ(formatBytes(2048.0), "2.00 KiB");
    EXPECT_EQ(formatBytes(1.5 * 1024 * 1024 * 1024), "1.50 GiB");
}

TEST(Units, FormatFlopsUsesDecimalPrefixes)
{
    EXPECT_EQ(formatFlops(2.0e12), "2.00 TFLOP");
    EXPECT_EQ(formatFlops(123.0), "123.00 FLOP");
}

TEST(Units, FormatRate)
{
    EXPECT_EQ(formatRate(150e9, "B"), "150.00 GB/s");
}

TEST(Units, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.473), "47.3%");
    EXPECT_EQ(formatPercent(1.4, 0), "140%");
}

/** printf's "%.*f" rendering of `v`, sized to fit. */
std::string
printfFixed(double v, int precision)
{
    const int n = std::snprintf(nullptr, 0, "%.*f", precision, v);
    std::string out(static_cast<std::size_t>(n), '\0');
    std::snprintf(out.data(), out.size() + 1, "%.*f", precision, v);
    return out;
}

/** formatSeconds as snprintf renders it: the oracle. */
std::string
printfSeconds(double s, int precision)
{
    const char *const prefix[] = { "ns", "us", "ms", "s" };
    double v = s * 1e9;
    int idx = 0;
    while (idx + 1 < 4 && std::fabs(v) >= 1000.0) {
        v /= 1000.0;
        ++idx;
    }
    return printfFixed(v, precision) + " " + prefix[idx];
}

/** formatPercent as snprintf renders it: the oracle. */
std::string
printfPercent(double fraction, int precision)
{
    return printfFixed(fraction * 100.0, precision) + "%";
}

void
expectPrintfRendering(double v, int precision)
{
    EXPECT_EQ(formatSeconds(v, precision), printfSeconds(v, precision))
        << std::hexfloat << v << " at precision " << precision;
    EXPECT_EQ(formatPercent(v, precision), printfPercent(v, precision))
        << std::hexfloat << v << " at precision " << precision;
}

TEST(Units, FixedRenderingMatchesPrintf)
{
    const double edges[] = {
        0.0, -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        0x1.fffffffffffffp-1023, // largest subnormal
        std::numeric_limits<double>::min(),
        0.0005, 0.0015, -0.0005, 0.125, 2.5, 0.5, 1.5,
        0.0005e-9, 0.0015e-9, 2.5e-9, // ties once scaled to ns
        999.9995e-9, 999.9995e-6, 999.9995e-3, // prefix boundaries
        999.9994999e-9, 1e-6, -999.9995e-9,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        1e200, -1e200, std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
    };
    for (const double v : edges) {
        for (int precision = 0; precision <= 8; ++precision)
            expectPrintfRendering(v, precision);
        expectPrintfRendering(v, 17);
        expectPrintfRendering(v, -1); // printf reads it as 6
    }
}

TEST(Units, FixedRenderingMatchesPrintfOnRandomDoubles)
{
    Rng rng(2024);
    for (int i = 0; i < 20000; ++i) {
        const int precision = static_cast<int>(rng.nextU64() % 10);
        // Any bit pattern (nan, inf, subnormal, huge) half the time;
        // otherwise magnitudes a table would print, 1e-15 to 1e6.
        const std::uint64_t bits = rng.nextU64();
        const double v =
            i % 2 == 0
                ? std::bit_cast<double>(bits)
                : (bits & 1 ? -1.0 : 1.0) *
                      std::pow(10.0, -15.0 + 21.0 * rng.nextDouble());
        expectPrintfRendering(v, precision);
    }
}

TEST(Units, LongFixedRenderingIsNotTruncated)
{
    // printf into the 64-byte buffer formatSeconds once used cut
    // 1e200 s to 63 characters; the rendering is now complete.
    const std::string full = printfSeconds(1e200, 3);
    EXPECT_GT(full.size(), 63u);
    EXPECT_EQ(formatSeconds(1e200), full);
}

// --- table ---

TEST(Table, RendersAlignedColumns)
{
    TextTable t({ "name", "value" });
    t.addRowOf("alpha", 1.5);
    t.addRowOf("b", 22);
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    // Header underline present.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCells)
{
    TextTable t({ "a", "b" });
    t.addRow({ "x,y", "he said \"hi\"" });
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_EQ(oss.str(), "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(Table, RowArityMismatchIsFatal)
{
    TextTable t({ "a", "b" });
    EXPECT_THROW(t.addRow({ "only one" }), FatalError);
}

TEST(Table, EmptyHeaderIsFatal)
{
    EXPECT_THROW(TextTable({}), FatalError);
}

TEST(Table, CountsRowsAndCols)
{
    TextTable t({ "a", "b", "c" });
    EXPECT_EQ(t.numCols(), 3u);
    EXPECT_EQ(t.numRows(), 0u);
    t.addRowOf(1, 2, 3);
    EXPECT_EQ(t.numRows(), 1u);
}

TEST(StringInterner, DedupesAndRoundTrips)
{
    util::StringInterner in;
    const auto a = in.intern("compute");
    const auto b = in.intern("ring_step");
    EXPECT_NE(a, b);
    EXPECT_EQ(in.intern("compute"), a); // same string, same id
    EXPECT_EQ(in.size(), 2u);
    EXPECT_EQ(in.view(a), "compute");
    EXPECT_EQ(in.view(b), "ring_step");
    EXPECT_THROW(in.view(99), PanicError);
}

TEST(StringInterner, FindNeverInterns)
{
    util::StringInterner in;
    EXPECT_EQ(in.find("ghost"), util::StringInterner::kNotFound);
    EXPECT_EQ(in.size(), 0u);
    const auto id = in.intern("real");
    EXPECT_EQ(in.find("real"), id);
    EXPECT_EQ(in.size(), 1u);
}

TEST(StringInterner, ViewsStayValidAsTheTableGrows)
{
    // Storage is a deque: growth must not invalidate earlier views.
    util::StringInterner in;
    const std::string_view first = in.view(in.intern("anchor"));
    for (int i = 0; i < 1000; ++i)
        in.intern("filler_" + std::to_string(i));
    EXPECT_EQ(first, "anchor");
    EXPECT_EQ(in.view(0), "anchor");
    EXPECT_EQ(in.size(), 1001u);
}

} // namespace
} // namespace twocs
