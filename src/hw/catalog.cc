#include "catalog.hh"

#include <algorithm>

#include "util/logging.hh"

namespace twocs::hw {

using namespace twocs::units;

namespace {

DeviceSpec
make(const std::string &name, int year, double fp32_tf, double fp16_tf,
     double fp8_tf, double mem_gbps, double cap_gib, int cus,
     int num_links, double link_bidir_gbps)
{
    DeviceSpec d;
    d.name = name;
    d.year = year;
    d.peakFlopsFp32 = fp32_tf * TFLOPs;
    d.peakFlopsFp16 = fp16_tf * TFLOPs;
    d.peakFlopsFp8 = fp8_tf * TFLOPs;
    d.memBandwidth = mem_gbps * GBps;
    d.memCapacity = cap_gib * GiB;
    d.numComputeUnits = cus;
    // Device-side dispatch/drain cost per kernel; host launch
    // latency is hidden by queueing and excluded (rocprof reports
    // kernel durations only).
    d.kernelLaunchOverhead = 1.5 * micro;
    d.numLinks = num_links;
    d.link.bandwidth = link_bidir_gbps / 2.0 * GBps;
    // Per-ring-step software + wire latency (collective-library chunk
    // pipelining floor).
    d.link.latency = 3.0 * micro;
    d.validate();
    return d;
}

} // namespace

DeviceSpec
mi210()
{
    // 181 TFLOP/s FP16, 64 GiB HBM2e at 1.6 TB/s, 104 CUs, three
    // Infinity Fabric links at 100 GB/s bidirectional each
    // (paper Section 4.3.1).
    return make("MI210", 2022, 22.6, 181.0, 0.0, 1600.0, 64.0, 104,
                3, 100.0);
}

DeviceSpec
mi50()
{
    return make("MI50", 2018, 13.3, 26.5, 0.0, 1024.0, 32.0, 60,
                2, 81.0);
}

DeviceSpec
mi100()
{
    return make("MI100", 2020, 23.1, 184.6, 0.0, 1228.0, 32.0, 120,
                3, 92.0);
}

DeviceSpec
v100()
{
    return make("V100", 2018, 15.7, 125.0, 0.0, 900.0, 32.0, 80,
                6, 50.0);
}

DeviceSpec
a100()
{
    // 624 TFLOP/s is the sparsity-assisted FP16 figure the paper's
    // 5x compute-scaling ratio is computed against.
    return make("A100", 2020, 19.5, 624.0, 0.0, 2039.0, 80.0, 108,
                12, 50.0);
}

DeviceSpec
p100()
{
    return make("P100", 2016, 10.6, 21.2, 0.0, 732.0, 16.0, 56,
                4, 40.0);
}

DeviceSpec
h100()
{
    return make("H100", 2022, 67.0, 990.0, 1979.0, 3350.0, 80.0, 132,
                18, 50.0);
}

std::vector<DeviceSpec>
allDevices()
{
    std::vector<DeviceSpec> all = {
        p100(), mi50(), v100(), mi100(), a100(), mi210(), h100(),
    };
    std::sort(all.begin(), all.end(),
              [](const DeviceSpec &a, const DeviceSpec &b) {
                  return a.year < b.year;
              });
    return all;
}

DeviceSpec
deviceByName(const std::string &name)
{
    // Built once: the catalog is immutable, and the query service
    // resolves a device on every request.
    static const std::vector<DeviceSpec> catalog = allDevices();
    for (const DeviceSpec &d : catalog) {
        if (d.name == name)
            return d;
    }
    fatal("unknown device '", name, "'");
}

DeviceSpec
deviceOfYear(int year)
{
    const auto all = allDevices();
    DeviceSpec best = all.front();
    for (const DeviceSpec &d : all) {
        if (d.year <= year && d.memCapacity >= best.memCapacity)
            best = d;
    }
    return best;
}

double
flopVsBwScaling(const DeviceSpec &older, const DeviceSpec &newer)
{
    const double flop_scale = newer.peakFlopsFp16 / older.peakFlopsFp16;
    const double old_bw =
        older.numLinks * older.link.bandwidth;
    const double new_bw =
        newer.numLinks * newer.link.bandwidth;
    fatalIf(old_bw <= 0.0 || new_bw <= 0.0,
            "flopVsBwScaling() with zero link bandwidth");
    return flop_scale / (new_bw / old_bw);
}

} // namespace twocs::hw
