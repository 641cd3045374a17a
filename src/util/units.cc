#include "units.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string_view>

namespace twocs {

namespace {

/** `value` in fixed notation with `precision` decimals, then
 *  `suffix`: the bytes of printf's "%.*f" followed by the suffix. */
std::string
fixedWithSuffix(double value, int precision, std::string_view suffix)
{
    char buf[64];
    const std::to_chars_result r =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::fixed, precision);
    if (r.ec == std::errc()) {
        std::string out;
        out.reserve(static_cast<std::size_t>(r.ptr - buf) +
                    suffix.size());
        out.append(buf, r.ptr);
        out.append(suffix);
        return out;
    }
    // Too long for the stack buffer (|value| >= ~1e50 or a long
    // precision): 309 integer digits, sign, point and decimals fit.
    // A negative precision means 6, as in printf.
    std::string out(312 + static_cast<std::size_t>(std::max(precision, 6)),
                    '\0');
    const std::to_chars_result big =
        std::to_chars(out.data(), out.data() + out.size(), value,
                      std::chars_format::fixed, precision);
    out.resize(static_cast<std::size_t>(big.ptr - out.data()));
    out.append(suffix);
    return out;
}

std::string
withPrefix(double value, double base, const char *const *prefixes,
           int num_prefixes, const std::string &unit, int precision)
{
    double magnitude = std::fabs(value);
    int idx = 0;
    while (idx + 1 < num_prefixes && magnitude >= base) {
        magnitude /= base;
        value /= base;
        ++idx;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f %s%s", precision, value,
                  prefixes[idx], unit.c_str());
    return buf;
}

} // namespace

std::string
formatSeconds(Seconds s, int precision)
{
    static const std::array<std::string_view, 4> suffix = {
        " ns", " us", " ms", " s"
    };
    double v = s * 1e9;
    std::size_t idx = 0;
    while (idx + 1 < suffix.size() && std::fabs(v) >= 1000.0) {
        v /= 1000.0;
        ++idx;
    }
    return fixedWithSuffix(v, precision, suffix[idx]);
}

std::string
formatBytes(Bytes b, int precision)
{
    static const char *prefixes[] = { "", "Ki", "Mi", "Gi", "Ti", "Pi" };
    return withPrefix(b, 1024.0, prefixes, 6, "B", precision);
}

std::string
formatFlops(FlopCount f, int precision)
{
    static const char *prefixes[] = { "", "K", "M", "G", "T", "P", "E" };
    return withPrefix(f, 1000.0, prefixes, 7, "FLOP", precision);
}

std::string
formatRate(double per_second, const std::string &unit, int precision)
{
    static const char *prefixes[] = { "", "K", "M", "G", "T", "P", "E" };
    return withPrefix(per_second, 1000.0, prefixes, 7, unit + "/s",
                      precision);
}

std::string
formatPercent(double fraction, int precision)
{
    return fixedWithSuffix(fraction * 100.0, precision, "%");
}

} // namespace twocs
