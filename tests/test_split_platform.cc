/**
 * @file
 * Split-platform tests: the domain-plan coupling-class validator
 * (illegal plans die naming the offending synchronous edge) and
 * digest equality of a full fault-campaign System across domain
 * plans.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/builders.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"
#include "sim/domain.hh"

using namespace optimus;
using namespace optimus::hv;

namespace {

PlatformConfig
cfgWithPlan(DomainPlan plan, std::uint32_t n = 1)
{
    PlatformConfig c = makeOptimusConfig("MB", n);
    c.domains = plan;
    return c;
}

// ------------------------------------------- coupling-class validator

using SplitPlatformDeathTest = ::testing::Test;

TEST(SplitPlatformDeathTest, AccelAwayFromCcipNamesFabricEdge)
{
    DomainPlan p;
    p.accel = 1;
    // The fabric ports and response delivery are direct calls, so
    // accel and ccip must share a domain; the validator must say so.
    EXPECT_DEATH({ System sys(cfgWithPlan(p)); }, "accel<->ccip");
}

TEST(SplitPlatformDeathTest, HvAwayFromCcipNamesMmioTrapEdge)
{
    DomainPlan p;
    p.hv = 1;
    EXPECT_DEATH({ System sys(cfgWithPlan(p)); }, "hv<->ccip");
}

TEST(SplitPlatformDeathTest, IommuAwayFromMemNamesHostBridgeEdge)
{
    DomainPlan p;
    p.iommu = 1; // mem stays on 0: cuts the walk->access flow
    EXPECT_DEATH({ System sys(cfgWithPlan(p)); }, "iommu<->mem");
}

// ------------------------------------------- plan digest equivalence

/** Everything a campaign run can observably produce. */
struct Digest
{
    std::vector<std::uint64_t> results;
    std::vector<accel::Status> statuses;
    sim::Tick end = 0;
    std::uint64_t injections = 0;
    std::uint64_t epochs = 0;
    std::string telemetry;

    bool
    operator==(const Digest &o) const
    {
        return results == o.results && statuses == o.statuses &&
               end == o.end && injections == o.injections &&
               epochs == o.epochs && telemetry == o.telemetry;
    }
};

/**
 * A full fault campaign — drops with retry, delays, a forced
 * translation fault, periodic IOTLB poisoning (host-domain one-shots)
 * and a wild DMA — over two MB tenants, run to completion plus a
 * drain of the trailing one-shots.
 */
Digest
runCampaign(bool split)
{
    PlatformConfig c = makeOptimusConfig("MB", 2);
    if (split)
        c.domains = splitPlan();
    System sys(std::move(c));
    auto inj = exp::installFaults(
        sys,
        "drop:rate=0.2,count=4,seed=7;"
        "delay:extra=300ns,rate=0.1,seed=9;"
        "iommu_fault:rate=1,count=1,vm=1;"
        "poison_iotlb:at=30us,period=20us,count=3,set=5;"
        "wild_dma@0:at=50us");
    AccelHandle &a = sys.attach(0);
    AccelHandle &b = sys.attach(1);
    auto wa = workload::Workload::create("MB", a, 1ULL << 20, 7);
    auto wb = workload::Workload::create("MB", b, 1ULL << 20, 11);
    wa->program();
    wb->program();
    a.start();
    b.start();

    Digest d;
    d.statuses.push_back(a.wait());
    d.statuses.push_back(b.wait());
    sys.run(sys.eq.now() + 200 * sim::kTickUs); // trailing one-shots
    d.results = {a.result(), b.result()};
    d.end = sys.eq.now();
    d.injections = inj->injections();
    d.epochs = sys.sched.epochs();
    std::ostringstream os;
    sys.telemetry.writeJson(os);
    d.telemetry = os.str();
    return d;
}

TEST(SplitPlatformTest, FaultCampaignDigestsMatchSingleDomain)
{
    Digest single = runCampaign(/*split=*/false);
    Digest split = runCampaign(/*split=*/true);

    // The campaign actually perturbed the run, on both sides of the
    // package: drops/delays/wild DMA on the FPGA domain, poisoning
    // and the forced walk fault on the host domain.
    EXPECT_GE(single.injections, 5u);

    // Same events, same clocks, same stat tree — byte for byte —
    // whatever the plan.
    EXPECT_EQ(split, single);
}

TEST(SplitPlatformTest, SplitPlanActuallyCrossesDomains)
{
    PlatformConfig c = makeOptimusConfig("MB", 1);
    c.domains = splitPlan();
    System sys(std::move(c));
    EXPECT_EQ(sys.domains.size(), 2u);

    AccelHandle &h = sys.attach(0);
    auto wl = workload::Workload::create("MB", h, 1ULL << 20, 7);
    wl->program();
    h.start();
    EXPECT_EQ(h.wait(), accel::Status::kDone);
    EXPECT_TRUE(wl->verify());
    // Every DMA translated and completed on the host shard, so the
    // scheduler must have carried traffic across the boundary.
    EXPECT_GT(sys.sched.delivered(), 0u);
    EXPECT_GT(sys.domains.queue(1).executed(), 0u);
}

TEST(SplitPlatformTest, ThreadLocalDefaultAppliesSplitPlan)
{
    bool prev = sim::setDefaultDomainSplit(true);
    {
        // A stock single-domain config picks up the split plan, the
        // way exp::Runner --domain-plan split arranges it per worker.
        System sys(makeOptimusConfig("MB", 1));
        EXPECT_EQ(sys.domains.size(), 2u);
        EXPECT_EQ(sys.platform.config().domains.iommu, 1u);
    }
    sim::setDefaultDomainSplit(false);
    {
        // With the default off, the stock config stays single-domain.
        System sys(makeOptimusConfig("MB", 1));
        EXPECT_EQ(sys.domains.size(), 1u);
        EXPECT_TRUE(sys.platform.config().domains.singleDomain());
    }
    sim::setDefaultDomainSplit(prev);
}

} // namespace
