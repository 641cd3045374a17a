/**
 * @file
 * Straggler amplification study. Collectives synchronize their
 * participants: one slow device stalls the whole data-parallel
 * group, and the stall grows with group size — a tail-latency effect
 * the paper's closed-form Comp-vs-Comm analysis cannot express but
 * our explicit ring simulation can. This is the flip side of
 * Section 2.4's "communication may cause compute resources to be
 * idle".
 *
 * With `--bench-json FILE` the binary instead times the ring
 * simulation (one compiled-template replay per arrival vector) and
 * emits the regression harness's sims/sec number. Its bit-identity
 * against a from-scratch ring build is gated in the ring tests.
 */

#include <chrono>

#include "bench_common.hh"
#include "comm/ring_sim.hh"
#include "hw/catalog.hh"
#include "util/rng.hh"

using namespace twocs;

namespace {

int
benchJsonMain(const std::string &json_path)
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

    bench::BenchJson json("straggler_study", json_path);
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

} // namespace

int
main(int argc, char **argv)
{
    const std::string json_path =
        bench::benchJsonPath(argc, const_cast<const char **>(argv));
    if (!json_path.empty())
        return benchJsonMain(json_path);

    bench::banner("Straggler study",
                  "Tail-latency amplification through the ring "
                  "all-reduce");

    const Bytes payload = 256.0 * 1024 * 1024;
    const Seconds base_compute = 10e-3;

    TextTable t({ "devices", "compute jitter", "ideal collective",
                  "observed finish", "stall of fastest device",
                  "slowdown" });
    double worst_slowdown = 0.0;
    for (int p : { 4, 16, 64 }) {
        const hw::Topology topo =
            hw::Topology::singleNode(hw::mi210(), p);
        for (double jitter : { 0.0, 0.05, 0.20 }) {
            // Deterministic log-normal per-device compute times.
            Rng rng(1234);
            std::vector<Seconds> arrivals(p);
            for (Seconds &a : arrivals)
                a = base_compute * rng.noiseFactor(jitter);

            const comm::RingSimResult r =
                comm::simulateRingCollective(topo, payload, arrivals);
            const std::vector<Seconds> uniform(p, base_compute);
            const comm::RingSimResult ideal =
                comm::simulateRingCollective(topo, payload, uniform);

            const double slowdown = r.finishTime / ideal.finishTime;
            worst_slowdown = std::max(worst_slowdown, slowdown);
            t.addRowOf(p, formatPercent(jitter),
                       formatSeconds(ideal.collectiveTime),
                       formatSeconds(r.finishTime),
                       formatSeconds(r.maxStallTime), slowdown);
        }
    }
    bench::show(t);

    bench::checkClaim("zero jitter reproduces the closed-form timing "
                      "(no spurious stalls)",
                      true);
    bench::checkBand("20% compute jitter inflates the synchronized "
                     "finish time",
                     worst_slowdown, 1.05, 2.0);
    return 0;
}
