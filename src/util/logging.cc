#include "logging.hh"

#include <iostream>

namespace twocs {

namespace detail {

bool &
verboseFlag()
{
    static bool verbose = true;
    return verbose;
}

void
emitStatus(const char *prefix, const std::string &message)
{
    std::cerr << prefix << ": " << message << "\n";
}

} // namespace detail

void
setVerbose(bool verbose)
{
    detail::verboseFlag() = verbose;
}

} // namespace twocs
