#include "hv/system.hh"

namespace optimus::hv {

namespace {
thread_local SystemObserver *t_observer = nullptr;
} // namespace

SystemObserver *
SystemObserver::swap(SystemObserver *obs)
{
    SystemObserver *prev = t_observer;
    t_observer = obs;
    return prev;
}

SystemObserver *
SystemObserver::current()
{
    return t_observer;
}

namespace {

/**
 * Resolve the effective config before the DomainSet is sized: a
 * default (single-domain) plan picks up the thread-local domain-plan
 * default — which the experiment runner sets per worker from
 * `--domain-plan`. An explicitly split (or otherwise non-default)
 * plan is left alone.
 */
PlatformConfig
applyDefaultPlan(PlatformConfig config)
{
    if (config.domains.singleDomain() && sim::defaultDomainSplit())
        config.domains = splitPlan();
    return config;
}

} // namespace

System::System(PlatformConfig config)
    : _ownedDomains(std::make_unique<sim::DomainSet>(
          (config = applyDefaultPlan(std::move(config)))
              .domains.domainCount())),
      _ownedSched(std::make_unique<sim::EpochScheduler>(*_ownedDomains)),
      domains(*_ownedDomains),
      eq(domains.queue(config.domains.hv)),
      sched(*_ownedSched),
      platform(domains, std::move(config), telemetry, trace),
      hv(platform),
      _observer(SystemObserver::current())
{
    // Always arm the trace lanes and barrier hook, even for one
    // domain: the platform's boundary channels use deferred (barrier)
    // delivery in every plan, so barriers — and the merged-lane trace
    // path, whose (tick, component) ordering is plan-invariant — are
    // part of the stock engine, not a multi-domain special case.
    trace.armDomains(domains.size());
    sched.setBarrierHook([this]() { trace.flushMerged(); });
    platform.setScheduler(&sched);
    if (_observer)
        _observer->systemCreated(*this);
}

System::System(sim::DomainSet &ext_domains,
               sim::EpochScheduler &ext_sched, PlatformConfig config)
    : domains(ext_domains),
      eq(domains.queue(config.domains.hv)),
      sched(ext_sched),
      platform(domains, std::move(config), telemetry, trace),
      hv(platform),
      _observer(SystemObserver::current())
{
    // Trace lanes are indexed by global domain id, so each node arms
    // the embedder's full set; lanes owned by sibling nodes simply
    // stay empty on this bus. The embedder installs the one barrier
    // hook that flushes every node's bus in node order — per-node
    // hooks would overwrite each other on the shared scheduler.
    trace.armDomains(domains.size());
    platform.setScheduler(&sched);
    if (_observer)
        _observer->systemCreated(*this);
}

System::~System()
{
    // Deferred posts may still sit in outboxes; anything they would
    // have traced is already flushed, but a final merge publishes any
    // records emitted since the last barrier.
    trace.flushMerged();
    if (_observer)
        _observer->systemDestroyed(*this);
}

PlatformConfig
makeOptimusConfig(const std::string &app, std::uint32_t n,
                  sim::PlatformParams params)
{
    PlatformConfig cfg;
    cfg.params = params;
    cfg.mode = FabricMode::kOptimus;
    cfg.apps.assign(n, app);
    return cfg;
}

PlatformConfig
makePassthroughConfig(const std::string &app,
                      sim::PlatformParams params)
{
    PlatformConfig cfg;
    cfg.params = params;
    cfg.mode = FabricMode::kPassthrough;
    cfg.apps = {app};
    return cfg;
}

} // namespace optimus::hv
