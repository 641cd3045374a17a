#include "table.hh"

#include <algorithm>
#include <cstdio>

#include "logging.hh"

namespace twocs {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    fatalIf(headers_.empty(), "TextTable needs at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    fatalIf(cells.size() != headers_.size(),
            "TextTable row has ", cells.size(), " cells, expected ",
            headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
TextTable::toCell(double v)
{
    char buf[64];
    // Use %g for compactness but keep enough digits for ratios.
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

std::string
TextTable::toCell(int v)
{
    return std::to_string(v);
}

std::string
TextTable::toCell(long v)
{
    return std::to_string(v);
}

std::string
TextTable::toCell(unsigned long v)
{
    return std::to_string(v);
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    // One reused row buffer and one write per row, not a stream
    // insertion per cell and pad. The whole table is not buffered,
    // so memory does not grow with the row count.
    std::string line;
    auto emit_row = [&](const std::vector<std::string> &row) {
        line.clear();
        for (std::size_t c = 0; c < row.size(); ++c) {
            line += row[c];
            if (c + 1 < row.size())
                line.append(widths[c] - row[c].size() + 2, ' ');
        }
        line += '\n';
        os.write(line.data(), static_cast<std::streamsize>(line.size()));
    };

    emit_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    line.assign(total, '-');
    line += '\n';
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
    for (const auto &row : rows_)
        emit_row(row);
}

void
TextTable::printCsv(std::ostream &os) const
{
    auto emit_csv_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            const std::string &cell = row[c];
            const bool quote =
                cell.find(',') != std::string::npos ||
                cell.find('"') != std::string::npos;
            if (quote) {
                os << '"';
                for (char ch : cell) {
                    if (ch == '"')
                        os << '"';
                    os << ch;
                }
                os << '"';
            } else {
                os << cell;
            }
            if (c + 1 < row.size())
                os << ',';
        }
        os << "\n";
    };

    emit_csv_row(headers_);
    for (const auto &row : rows_)
        emit_csv_row(row);
}

} // namespace twocs
