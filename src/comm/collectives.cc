#include "collectives.hh"

#include <cmath>

#include "util/logging.hh"

namespace twocs::comm {

std::string
collectiveKindName(CollectiveKind kind)
{
    switch (kind) {
      case CollectiveKind::AllReduce:
        return "all_reduce";
      case CollectiveKind::AllGather:
        return "all_gather";
      case CollectiveKind::ReduceScatter:
        return "reduce_scatter";
      case CollectiveKind::Broadcast:
        return "broadcast";
      case CollectiveKind::AllToAll:
        return "all_to_all";
      case CollectiveKind::PointToPoint:
        return "point_to_point";
    }
    panic("unknown collective kind");
}

std::string
collectiveAlgorithmName(CollectiveAlgorithm algorithm)
{
    switch (algorithm) {
      case CollectiveAlgorithm::Auto:
        return "auto";
      case CollectiveAlgorithm::Ring:
        return "ring";
      case CollectiveAlgorithm::Tree:
        return "tree";
      case CollectiveAlgorithm::Hierarchical:
        return "hierarchical";
      case CollectiveAlgorithm::PointToPoint:
        return "point_to_point";
    }
    panic("unknown collective algorithm");
}

CollectiveModel::CollectiveModel(hw::Topology topology,
                                 hw::LinkEfficiencyParams link_params)
    : topology_(std::move(topology)), linkParams_(link_params)
{
}

void
CollectiveModel::setInNetworkReduction(bool enabled)
{
    inNetworkReduction_ = enabled;
}

namespace {

void
checkArgs(Bytes bytes, int participants)
{
    fatalIf(bytes <= 0.0, "collective with non-positive payload");
    fatalIf(participants < 2,
            "collective needs >= 2 participants, got ", participants);
}

} // namespace

Seconds
CollectiveModel::intraWireTime(Bytes wire_bytes_per_device) const
{
    const int rings = topology_.parallelRings();
    const Bytes per_ring = wire_bytes_per_device / rings;
    const double eff = hw::linkEfficiency(per_ring, linkParams_);
    return per_ring / (topology_.intraLink().bandwidth * eff);
}

CollectiveCost
CollectiveModel::allReduceImpl(Bytes bytes, int participants) const
{
    checkArgs(bytes, participants);

    if (topology_.crossesNodes() &&
        participants > topology_.devicesPerNode()) {
        return hierarchicalAllReduceImpl(bytes, participants);
    }

    if (inNetworkReduction_) {
        // Devices push data to the reducing switch and receive the
        // result: bytes cross each device's port once each way.
        CollectiveCost c;
        c.steps = 2;
        c.bytesOnWire = bytes;
        c.wireTime = intraWireTime(c.bytesOnWire);
        c.latencyTime = c.steps * topology_.intraLink().latency;
        c.total = c.wireTime + c.latencyTime;
        return c;
    }
    return ringAllReduceImpl(bytes, participants);
}

CollectiveCost
CollectiveModel::ringAllReduceImpl(Bytes bytes, int participants) const
{
    checkArgs(bytes, participants);

    CollectiveCost c;
    const double p = participants;
    // Ring: reduce-scatter then all-gather, (P-1) steps each,
    // chunk of S/P bytes per step.
    c.steps = 2 * (participants - 1);
    c.bytesOnWire = 2.0 * bytes * (p - 1.0) / p;
    c.wireTime = intraWireTime(c.bytesOnWire);
    c.latencyTime = c.steps * topology_.intraLink().latency;
    c.total = c.wireTime + c.latencyTime;
    return c;
}

CollectiveCost
CollectiveModel::treeAllReduceImpl(Bytes bytes, int participants) const
{
    checkArgs(bytes, participants);

    int levels = 0;
    for (int span = 1; span < participants; span *= 2)
        ++levels;

    CollectiveCost c;
    // Reduce up the tree then broadcast down: each level moves the
    // full payload across one link per participating device pair.
    c.steps = 2 * levels;
    c.bytesOnWire = 2.0 * levels * bytes;
    // A node talks to one child at a time: a single link (no
    // multi-ring striping), so small payloads still pay less latency
    // than the ring's 2(P-1) steps.
    const double eff = hw::linkEfficiency(bytes, linkParams_);
    c.wireTime = c.bytesOnWire /
                 (topology_.intraLink().bandwidth * eff);
    c.latencyTime = c.steps * topology_.intraLink().latency;
    c.total = c.wireTime + c.latencyTime;
    return c;
}

CollectiveCost
CollectiveModel::allReduceAuto(Bytes bytes, int participants) const
{
    const CollectiveCost ring = allReduceImpl(bytes, participants);
    const CollectiveCost tree = treeAllReduceImpl(bytes, participants);
    return tree.total < ring.total ? tree : ring;
}

Bytes
CollectiveModel::ringTreeCrossover(int participants) const
{
    fatalIf(participants < 2, "crossover needs >= 2 participants");
    Bytes lo = 64.0;      // tree certainly wins here
    Bytes hi = 16.0e9;    // ring certainly wins here
    if (treeAllReduceImpl(lo, participants).total >=
        allReduceImpl(lo, participants).total) {
        return 0.0; // ring wins everywhere
    }
    if (treeAllReduceImpl(hi, participants).total <
        allReduceImpl(hi, participants).total) {
        return hi; // tree wins across the whole studied range
    }
    for (int i = 0; i < 60 && hi / lo > 1.01; ++i) {
        const Bytes mid = std::sqrt(lo * hi);
        if (treeAllReduceImpl(mid, participants).total <
            allReduceImpl(mid, participants).total) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return hi;
}

CollectiveCost
CollectiveModel::allGatherImpl(Bytes bytes, int participants) const
{
    checkArgs(bytes, participants);

    CollectiveCost c;
    const double p = participants;
    c.steps = participants - 1;
    // Each device forwards every peer's contribution once.
    c.bytesOnWire = bytes * (p - 1.0);
    c.wireTime = intraWireTime(c.bytesOnWire);
    c.latencyTime = c.steps * topology_.intraLink().latency;
    c.total = c.wireTime + c.latencyTime;
    return c;
}

CollectiveCost
CollectiveModel::reduceScatterImpl(Bytes bytes, int participants) const
{
    checkArgs(bytes, participants);

    CollectiveCost c;
    const double p = participants;
    c.steps = participants - 1;
    c.bytesOnWire = bytes * (p - 1.0) / p;
    c.wireTime = intraWireTime(c.bytesOnWire);
    c.latencyTime = c.steps * topology_.intraLink().latency;
    c.total = c.wireTime + c.latencyTime;
    return c;
}

CollectiveCost
CollectiveModel::broadcastImpl(Bytes bytes, int participants) const
{
    checkArgs(bytes, participants);

    CollectiveCost c;
    // Pipelined ring broadcast: wire time for one payload traversal
    // plus a pipeline fill of P-2 hops.
    c.steps = participants - 1;
    c.bytesOnWire = bytes;
    c.wireTime = intraWireTime(c.bytesOnWire);
    c.latencyTime = c.steps * topology_.intraLink().latency;
    c.total = c.wireTime + c.latencyTime;
    return c;
}

CollectiveCost
CollectiveModel::allToAllImpl(Bytes bytes, int participants) const
{
    checkArgs(bytes, participants);

    CollectiveCost c;
    const double p = participants;
    c.steps = participants - 1;
    // Each device keeps its own 1/P shard and sends the rest.
    c.bytesOnWire = bytes * (p - 1.0) / p;
    c.wireTime = intraWireTime(c.bytesOnWire);
    c.latencyTime = c.steps * topology_.intraLink().latency;
    c.total = c.wireTime + c.latencyTime;
    return c;
}

CollectiveCost
CollectiveModel::hierarchicalAllReduceImpl(Bytes bytes,
                                           int participants) const
{
    fatalIf(bytes <= 0.0, "collective with non-positive payload");
    fatalIf(!topology_.crossesNodes(),
            "hierarchical all-reduce on a single-node topology");

    if (participants == 0)
        participants = topology_.numDevices();
    const int per_node = topology_.devicesPerNode();
    fatalIf(participants % per_node != 0,
            "hierarchical all-reduce participants (", participants,
            ") must be a multiple of devices per node (", per_node, ")");
    const int nodes = participants / per_node;
    fatalIf(nodes < 2, "hierarchical all-reduce needs >= 2 nodes");

    CollectiveCost c;

    // Phase 1: intra-node reduce-scatter.
    const CollectiveCost rs = per_node >= 2
                                  ? reduceScatterImpl(bytes, per_node)
                                  : CollectiveCost{};

    // Phase 2: inter-node all-reduce of the local shard.
    const Bytes shard = bytes / per_node;
    const double n = nodes;
    const Bytes inter_wire = 2.0 * shard * (n - 1.0) / n;
    const double inter_eff = hw::linkEfficiency(inter_wire, linkParams_);
    const Seconds inter_wire_time =
        inter_wire / (topology_.interNodeBandwidth() * inter_eff);
    const Seconds inter_latency =
        2.0 * (nodes - 1) * topology_.interLink().latency;

    // Phase 3: intra-node all-gather of the reduced shards.
    const CollectiveCost ag = per_node >= 2
                                  ? allGatherImpl(shard, per_node)
                                  : CollectiveCost{};

    c.steps = rs.steps + 2 * (nodes - 1) + ag.steps;
    c.bytesOnWire = rs.bytesOnWire + inter_wire + ag.bytesOnWire;
    c.wireTime = rs.wireTime + inter_wire_time + ag.wireTime;
    c.latencyTime = rs.latencyTime + inter_latency + ag.latencyTime;
    c.total = c.wireTime + c.latencyTime;
    return c;
}

CollectiveCost
CollectiveModel::pointToPointImpl(Bytes bytes) const
{
    fatalIf(bytes <= 0.0, "collective with non-positive payload");

    // Pipeline-stage boundaries land on the slow tier when the
    // topology has one: consecutive stages live on different nodes.
    const hw::LinkSpec &link = topology_.crossesNodes()
                                   ? topology_.interLink()
                                   : topology_.intraLink();
    CollectiveCost c;
    c.steps = 1;
    c.bytesOnWire = bytes;
    const double eff = hw::linkEfficiency(bytes, linkParams_);
    c.wireTime = bytes / (link.bandwidth * eff);
    c.latencyTime = link.latency;
    c.total = c.wireTime + c.latencyTime;
    return c;
}

CollectiveAlgorithm
CollectiveModel::resolveAlgorithm(const CollectiveDesc &desc) const
{
    if (desc.kind == CollectiveKind::PointToPoint)
        return CollectiveAlgorithm::PointToPoint;
    if (desc.algorithm != CollectiveAlgorithm::Auto)
        return desc.algorithm;
    if (desc.kind == CollectiveKind::AllReduce &&
        topology_.crossesNodes() &&
        desc.participants > topology_.devicesPerNode()) {
        return CollectiveAlgorithm::Hierarchical;
    }
    return CollectiveAlgorithm::Ring;
}

CollectiveCost
CollectiveModel::cost(const CollectiveDesc &desc) const
{
    if (desc.kind == CollectiveKind::PointToPoint) {
        fatalIf(desc.participants != 2,
                "point_to_point needs exactly 2 participants, got ",
                desc.participants);
        fatalIf(desc.algorithm != CollectiveAlgorithm::Auto &&
                    desc.algorithm !=
                        CollectiveAlgorithm::PointToPoint,
                "point_to_point cannot run the ",
                collectiveAlgorithmName(desc.algorithm),
                " algorithm");
        return pointToPointImpl(desc.bytes);
    }

    if (desc.kind == CollectiveKind::AllReduce) {
        switch (desc.algorithm) {
          case CollectiveAlgorithm::Auto:
            return allReduceImpl(desc.bytes, desc.participants);
          case CollectiveAlgorithm::Ring:
            return ringAllReduceImpl(desc.bytes, desc.participants);
          case CollectiveAlgorithm::Tree:
            return treeAllReduceImpl(desc.bytes, desc.participants);
          case CollectiveAlgorithm::Hierarchical:
            return hierarchicalAllReduceImpl(desc.bytes,
                                             desc.participants);
          case CollectiveAlgorithm::PointToPoint:
            fatal("all_reduce cannot run the point_to_point "
                  "algorithm");
        }
        panic("unknown collective algorithm");
    }

    fatalIf(desc.algorithm != CollectiveAlgorithm::Auto &&
                desc.algorithm != CollectiveAlgorithm::Ring,
            collectiveKindName(desc.kind), " only runs the ring "
            "algorithm; got ",
            collectiveAlgorithmName(desc.algorithm));
    switch (desc.kind) {
      case CollectiveKind::AllGather:
        return allGatherImpl(desc.bytes, desc.participants);
      case CollectiveKind::ReduceScatter:
        return reduceScatterImpl(desc.bytes, desc.participants);
      case CollectiveKind::Broadcast:
        return broadcastImpl(desc.bytes, desc.participants);
      case CollectiveKind::AllToAll:
        return allToAllImpl(desc.bytes, desc.participants);
      default:
        panic("unknown collective kind");
    }
}

ByteRate
CollectiveModel::achievedAllReduceBandwidth(Bytes bytes,
                                            int participants) const
{
    const CollectiveCost c = allReduceImpl(bytes, participants);
    return c.bytesOnWire / c.total;
}

CollectiveCost
cost(const CollectiveDesc &desc, const hw::Topology &topology,
     const hw::LinkEfficiencyParams &link_params,
     bool in_network_reduction)
{
    CollectiveModel model(topology, link_params);
    model.setInNetworkReduction(in_network_reduction);
    return model.cost(desc);
}

} // namespace twocs::comm
