/**
 * @file
 * The figure registry: every reproduced paper figure, table and
 * ablation as one entry that `twocs sweep --figure ID` renders.
 *
 * An entry pairs a renderer, which writes the figure's table(s) the
 * way the paper plots them, with a claims function, which returns the
 * paper's qualitative claims about that figure as bands. The sweep
 * command only renders; the claims are evaluated by the test suite
 * (FigureRegistry), which fails on any claim outside its band.
 * Absolute numbers come from the simulated substrate and are not
 * expected to match the authors' testbed; the bands assert the
 * qualitative claims (who wins, by what rough factor).
 */

#ifndef TWOCS_CORE_FIGURES_HH
#define TWOCS_CORE_FIGURES_HH

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/system_config.hh"
#include "exec/parallel_runner.hh"
#include "model/parallel.hh"

namespace twocs::core {

/**
 * One claim about a figure: the observed value must lie in
 * [lo, hi]. A boolean claim is observed 1 (holds) or 0 (does not)
 * against the band [1, 1].
 */
struct FigureClaim
{
    std::string name;
    double observed = 0.0;
    double lo = 0.0;
    double hi = 0.0;

    bool holds() const { return observed >= lo && observed <= hi; }
    bool isBoolean() const { return lo == 1.0 && hi == 1.0; }
};

/** What a renderer reads from the sweep command line. */
struct FigureOptions
{
    SystemConfig system;
    /** `--parallel` (figures 10 and 12 only). */
    model::ParallelPlan plan;
    /** Jobs and report path; each figure names its own study. */
    exec::RunnerOptions runner;
    /** `--csv`: every table as CSV instead of aligned text. */
    bool csv = false;
};

/** One registered figure. */
struct Figure
{
    /** `--figure` value: "10", "9b", "table2", "ablation-moe", ... */
    const char *id;
    const char *title;
    /** Whether the figure reads `--parallel`. */
    bool takesPlan;
    void (*render)(const FigureOptions &options, std::ostream &os);
    /** The figure's claims at the default system. */
    std::vector<FigureClaim> (*claims)();
};

/** Every figure, in display order. */
std::span<const Figure> figures();

/** Registry lookup by id; nullptr when unknown. */
const Figure *findFigure(std::string_view id);

/** The ids as an English list: "2, 6, 7, ... or straggler". */
std::string figureIdList();

} // namespace twocs::core

#endif // TWOCS_CORE_FIGURES_HH
