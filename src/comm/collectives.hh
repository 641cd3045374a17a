/**
 * @file
 * Communication-collective cost models over a hardware topology.
 *
 * This is the RCCL/NCCL stand-in: bandwidth-optimal ring algorithms
 * (all-reduce = reduce-scatter + all-gather), plus the collectives
 * needed by the paper's extensions (all-gather and reduce-scatter for
 * ZeRO-style techniques, all-to-all for expert parallelism, broadcast,
 * point-to-point sends for pipeline stages) and a hierarchical
 * all-reduce for multi-node setups. Costs combine per-step link
 * latency with a message-size bandwidth ramp, matching the saturation
 * behaviour of Figure 15(c).
 *
 * The single entry point is `cost(CollectiveDesc)`: a descriptor
 * names the collective kind, payload, group size, and (optionally) a
 * forced algorithm; `Auto` picks per topology tier — the flat ring on
 * one node, the hierarchical reduce-scatter/all-reduce/all-gather
 * when the group spans nodes, and the switch reduction when
 * in-network reduction is enabled.
 */

#ifndef TWOCS_COMM_COLLECTIVES_HH
#define TWOCS_COMM_COLLECTIVES_HH

#include <string>

#include "hw/efficiency.hh"
#include "hw/topology.hh"
#include "util/units.hh"

namespace twocs::comm {

/** The collective operations the model understands. */
enum class CollectiveKind
{
    AllReduce,
    AllGather,
    ReduceScatter,
    Broadcast,
    AllToAll,
    /** One stage-boundary activation/gradient send (pipeline
     *  parallelism): exactly two participants. */
    PointToPoint,
};

/** Human-readable name ("all_reduce", ...). */
std::string collectiveKindName(CollectiveKind kind);

/** How a collective is executed on the fabric. */
enum class CollectiveAlgorithm
{
    /** Pick per topology tier: ring on one node, hierarchical when
     *  the group spans nodes, switch reduction when in-network
     *  reduction is on. */
    Auto,
    /** Force the flat bandwidth-optimal ring. */
    Ring,
    /** Force the binary tree (all-reduce only): latency-optimal
     *  where the ring is bandwidth-optimal. */
    Tree,
    /** Force intra-node reduce-scatter / inter-node all-reduce /
     *  intra-node all-gather (all-reduce only; needs a multi-node
     *  topology). */
    Hierarchical,
    /** A single direct send between two peers. */
    PointToPoint,
};

/** Human-readable name ("auto", "ring", ...). */
std::string collectiveAlgorithmName(CollectiveAlgorithm algorithm);

/** One collective invocation. */
struct CollectiveDesc
{
    CollectiveKind kind = CollectiveKind::AllReduce;
    /** Payload bytes per device (the tensor being reduced/moved). */
    Bytes bytes = 0.0;
    /** Number of participating devices. */
    int participants = 0;
    /** Execution algorithm; Auto defers to the topology tier. */
    CollectiveAlgorithm algorithm = CollectiveAlgorithm::Auto;
};

/** Cost breakdown of one collective. */
struct CollectiveCost
{
    Seconds total = 0.0;
    /** Bandwidth-bound portion. */
    Seconds wireTime = 0.0;
    /** Per-step latency portion. */
    Seconds latencyTime = 0.0;
    /** Bytes each device injects into the network. */
    Bytes bytesOnWire = 0.0;
    /** Algorithm steps (ring stages). */
    int steps = 0;
};

/**
 * Cost model for collectives executed on a Topology.
 *
 * Projection setups (any TP degree on the measured node fabric) use
 * the intra-node ring path; topologies that cross nodes route through
 * the hierarchical algorithm automatically.
 */
class CollectiveModel
{
  public:
    explicit CollectiveModel(hw::Topology topology,
                             hw::LinkEfficiencyParams link_params = {});

    const hw::Topology &topology() const { return topology_; }

    /**
     * Enable processing-in-network reduction (paper Section 5,
     * Technique 2): switches halve the all-reduce wire traffic,
     * doubling effective bandwidth.
     */
    void setInNetworkReduction(bool enabled);
    bool inNetworkReduction() const { return inNetworkReduction_; }

    /** THE entry point: dispatch on the descriptor's kind and
     *  algorithm. */
    CollectiveCost cost(const CollectiveDesc &desc) const;

    /** The concrete algorithm cost() will run for this descriptor
     *  (what Auto resolves to on this topology). */
    CollectiveAlgorithm resolveAlgorithm(const CollectiveDesc &desc) const;

    /** NCCL/RCCL-style algorithm selection: the cheaper of ring and
     *  tree for this payload and group size. */
    CollectiveCost allReduceAuto(Bytes bytes, int participants) const;

    /** Payload below which the tree beats the ring for this group
     *  size (bisected; 0 when the ring always wins). */
    Bytes ringTreeCrossover(int participants) const;

    /**
     * Effective achieved all-reduce bandwidth for a payload:
     * algorithm bytes-on-wire / time. Saturates near the topology's
     * ring bandwidth for large payloads.
     */
    ByteRate achievedAllReduceBandwidth(Bytes bytes,
                                        int participants) const;

  private:
    CollectiveCost allReduceImpl(Bytes bytes, int participants) const;
    CollectiveCost ringAllReduceImpl(Bytes bytes,
                                     int participants) const;
    CollectiveCost treeAllReduceImpl(Bytes bytes,
                                     int participants) const;
    CollectiveCost allGatherImpl(Bytes bytes, int participants) const;
    CollectiveCost reduceScatterImpl(Bytes bytes,
                                     int participants) const;
    CollectiveCost broadcastImpl(Bytes bytes, int participants) const;
    CollectiveCost allToAllImpl(Bytes bytes, int participants) const;
    CollectiveCost hierarchicalAllReduceImpl(Bytes bytes,
                                             int participants) const;
    CollectiveCost pointToPointImpl(Bytes bytes) const;

    /** Bandwidth time for per-device wire bytes on the intra fabric. */
    Seconds intraWireTime(Bytes wire_bytes_per_device) const;

    hw::Topology topology_;
    hw::LinkEfficiencyParams linkParams_;
    bool inNetworkReduction_ = false;
};

/**
 * Cost a collective on a topology in one call — the free-function
 * face of the API for callers that do not hold a resident model.
 */
CollectiveCost cost(const CollectiveDesc &desc,
                    const hw::Topology &topology,
                    const hw::LinkEfficiencyParams &link_params = {},
                    bool in_network_reduction = false);

} // namespace twocs::comm

#endif // TWOCS_COMM_COLLECTIVES_HH
