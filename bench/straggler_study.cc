/**
 * @file
 * Ring-simulation throughput for the regression harness: a batch of
 * jittered arrival vectors (one compiled-template replay each), as
 * the what-if sweeps issue them. Prints sims/sec replayed; with
 * `--bench-json FILE` it also writes that number. Bit-identity
 * against a from-scratch ring build is gated in the ring tests; the
 * straggler table itself is `twocs sweep --figure straggler`.
 */

#include <chrono>

#include "bench_common.hh"
#include "comm/ring_sim.hh"
#include "hw/catalog.hh"
#include "util/rng.hh"

using namespace twocs;

int
main(int argc, char **argv)
{
    const int p = 16;
    const Bytes payload = 256.0 * 1024 * 1024;
    const hw::Topology topo = hw::Topology::singleNode(hw::mi210(), p);

    // A batch of jittered arrival vectors, as the what-if sweeps
    // issue them: same ring shape, different durations each call.
    Rng rng(1234);
    std::vector<std::vector<Seconds>> arrivals(64);
    for (std::vector<Seconds> &a : arrivals) {
        a.resize(p);
        for (Seconds &t : a)
            t = 10e-3 * rng.noiseFactor(0.2);
    }

    bench::BenchJson json("straggler_study",
                          bench::benchJsonPath(argc, argv));
    using Clock = std::chrono::steady_clock;
    double replay_rate = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = Clock::now();
        for (const std::vector<Seconds> &a : arrivals) {
            const comm::RingSimResult r =
                comm::simulateRingCollective(topo, payload, a);
            (void)r;
        }
        const std::chrono::duration<double> elapsed =
            Clock::now() - start;
        replay_rate = std::max(
            replay_rate, static_cast<double>(arrivals.size()) /
                             elapsed.count());
    }
    std::printf("Ring simulations: %.0f/sec replayed\n", replay_rate);
    json.set("sims_per_sec_replay", replay_rate);
    return json.write() ? 0 : 1;
}

