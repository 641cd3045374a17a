/**
 * @file
 * Paper claims about the hardware catalog and the substrate's
 * building blocks, which no reproduced figure plots. Every claim
 * about a figure, table or ablation is a figure-registry claim
 * (src/core/figures.cc), checked by FigureRegistry.
 */

#include <gtest/gtest.h>

#include "analytic/complexity.hh"
#include "core/system_config.hh"
#include "hw/catalog.hh"
#include "model/zoo.hh"
#include "test_common.hh"

namespace twocs {
namespace {

TEST(PaperClaims, Section3_ComputeHasAlgorithmicEdge)
{
    // "(H + SL) being always greater than TP" for real models:
    // compute ops exceed communicated bytes.
    for (const model::ZooEntry &e : model::modelZoo()) {
        EXPECT_GT(analytic::amdahlEdge(e.hp, e.assumedTpDegree), 1.0)
            << e.hp.name;
    }
}

TEST(PaperClaims, Section5_PinDoublesEffectiveBandwidth)
{
    // "PIN ... provides a 2x effective network bandwidth benefit."
    core::SystemConfig sys;
    const Seconds ring = sys.collectiveModel().cost({ comm::CollectiveKind::AllReduce, 1e9, 16 }).total;
    sys.inNetworkReduction = true;
    const Seconds pin = sys.collectiveModel().cost({ comm::CollectiveKind::AllReduce, 1e9, 16 }).total;
    EXPECT_IN_RANGE(ring / pin, 1.7, 2.2);
}

TEST(PaperClaims, Section62_PrecisionScalesComputeMoreThanComm)
{
    // "peak compute for FP16 vs FP32 [scales 4x on MI210] ... bytes
    // communicated only scale linearly."
    const hw::DeviceSpec d = hw::mi210();
    EXPECT_NEAR(d.peakFlops(hw::Precision::FP16) /
                    d.peakFlops(hw::Precision::FP32),
                8.0, 0.1); // matrix FP16 vs vector FP32 rate
    EXPECT_DOUBLE_EQ(hw::precisionBytes(hw::Precision::FP32) /
                         hw::precisionBytes(hw::Precision::FP16),
                     2.0);
}

} // namespace
} // namespace twocs
