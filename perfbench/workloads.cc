#include "workloads.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "accel/algo/aes128.hh"
#include "accel/algo/image.hh"
#include "accel/algo/md5.hh"
#include "accel/algo/reed_solomon.hh"
#include "accel/algo/sha.hh"
#include "accel/algo/signal.hh"
#include "accel/algo/smith_waterman.hh"
#include "accel/membench_accel.hh"
#include "fleet/fleet.hh"
#include "hv/system.hh"
#include "hv/workloads.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/trace_sinks.hh"
#include "svc/service_plane.hh"

namespace perfbench {

using namespace optimus;

namespace {

// ------------------------------------------------------------ inputs

/** Independent 64-bit stream value @p salt of workload seed @p seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t salt)
{
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
    return rng.next();
}

/** dma_mix: 8 MemBench ports, 0-3 read and 4-7 write. 8 x 256 MB of
 *  2 MB-page-backed window is 2 GB, twice the reach of the 512-entry
 *  IOTLB, so about half of all translations miss. */
constexpr std::uint32_t kMbPorts = 8;
constexpr std::uint64_t kMbWorkingSet = 256ULL << 20;
constexpr std::uint64_t kMbOps = 40000; ///< per port
constexpr sim::Tick kMbWarmup = 100 * sim::kTickUs;
constexpr sim::Tick kMbLimit = 100 * sim::kTickMs;

/** Round-robin slice on every time-shared slot, in all workloads. */
constexpr sim::Tick kSlice = 100 * sim::kTickUs;

/** apps_timeshare: one app per slot, two tenants per slot. Sizes give
 *  every job several slices, except SW, whose short job sees one or
 *  two. */
struct AppJob
{
    const char *app;
    std::uint64_t bytes;
};
constexpr AppJob kApps[] = {
    {"AES", 1ULL << 20},
    {"MD5", 2ULL << 20},
    {"SHA", 2ULL << 20},
    {"FIR", 1ULL << 20},
    {"GRN", 1ULL << 20},
    {"RSD", 768ULL << 10},
    {"SW", 7168},
    {"GAU", 1536ULL << 10},
};
constexpr unsigned kTenantsPerSlot = 2;
constexpr sim::Tick kAppsLimit = 200 * sim::kTickMs;

/** Job size for one tenant: the base size plus a seeded jitter of up
 *  to 1/64, so simulated times move with the seed. */
std::uint64_t
jobBytes(const AppJob &a, std::uint64_t seed, std::uint64_t tenant)
{
    const std::uint64_t grain = a.bytes >= (64ULL << 10) ? 4096 : 64;
    const std::uint64_t steps = a.bytes / grain / 64;
    sim::Rng rng(derive(seed, 1000 + tenant));
    return a.bytes + grain * rng.below(steps + 1);
}

/** Request serving: SHA over 512 B, 300 us SLO. */
constexpr std::uint64_t kReqBytes = 512;
constexpr std::uint64_t kSloNs = 300000;

/** svc_timeshare: 2 slots x (1 MMIO + 1 ring tenant) at 20k req/s
 *  each, well below a slot's capacity. */
constexpr double kSvcRate = 20000.0;
constexpr sim::Tick kSvcWindow = 25 * sim::kTickMs;
/** Independent trials per repetition, each with its own derived
 *  seeds. When the ring stall sets in is chance, and it decides how
 *  much of a trial is spent time-sharing; pooling trials keeps the
 *  latency tail from resting on one such draw. */
constexpr unsigned kSvcTrials = 48;
/** Drain allowance after the arrival window; requests still queued
 *  or in flight then count as failed. */
constexpr sim::Tick kSvcDrain = 5 * sim::kTickMs;

/** fleet_rebalance: 4 nodes x 2 MMIO tenants, alternating 20k/60k
 *  req/s. The rebalancer runs every 2 ms with a 4 ms cool-down and a
 *  queue-gap trigger of 8 (see NOTES.md for why not the defaults). */
constexpr unsigned kFleetNodes = 4;
constexpr double kFleetRates[2] = {20000.0, 60000.0};
constexpr sim::Tick kFleetWindow = 50 * sim::kTickMs;
constexpr sim::Tick kFleetRebalance = 2 * sim::kTickMs;
constexpr std::uint64_t kFleetImbalance = 8;
/** Independent clusters per repetition (see kSvcTrials). */
constexpr unsigned kFleetTrials = 8;

/** Per-DMA kinds are left out of the traced run's sink: a Chrome
 *  trace of every DMA would be gigabytes. The sink keeps the vaccel
 *  lifecycle and fault records. */
constexpr std::uint32_t kControlKinds =
    sim::traceMask(sim::TraceKind::kSchedPreempt) |
    sim::traceMask(sim::TraceKind::kFaultInject) |
    sim::traceMask(sim::TraceKind::kWatchdogFire) |
    sim::traceMask(sim::TraceKind::kSlotReset) |
    sim::traceMask(sim::TraceKind::kDmaRetry) |
    sim::traceMask(sim::TraceKind::kRingSubmit) |
    sim::traceMask(sim::TraceKind::kRingComplete);

// ---------------------------------------------------------- helpers

double
ns(sim::Tick t)
{
    return static_cast<double>(t) / static_cast<double>(sim::kTickNs);
}

void
beat(const RepSpec &spec)
{
    if (spec.progress)
        ++spec.progress->beats;
}

/** Operation counts reach the hang guard at every kCountEvery-th
 *  epoch barrier only: they walk ports or tenants, and the barrier
 *  probe runs inside the timed run. */
constexpr unsigned kCountEvery = 64;

/** Hands the hang guard the simulated time at every barrier and the
 *  (attempted, ok) pair that @p counts returns at every
 *  kCountEvery-th. */
class Publisher
{
  public:
    explicit Publisher(const RepSpec &spec) : _p(spec.progress) {}

    template <typename Counts>
    void
    operator()(sim::Tick now, Counts counts)
    {
        if (!_p)
            return;
        _p->tick.store(now);
        if (_n++ % kCountEvery != 0)
            return;
        const auto [attempted, ok] = counts();
        _p->attempted.store(attempted);
        _p->ok.store(ok);
    }

  private:
    Progress *_p;
    unsigned _n = 0;
};

using Counts = std::pair<std::uint64_t, std::uint64_t>;

/** Key @p leaf ("hv.mmio_traps"), at the root or under "nodeN.". */
Snapshot::Pred
named(const std::string &leaf)
{
    auto ends = endsWith("." + leaf);
    return [leaf, ends](const std::string &k) {
        return k == leaf || ends(k);
    };
}

/** Key ending in ".@p leaf" below a component instance
 *  "<kind><digits>" (accel3, auditor0). */
Snapshot::Pred
instanceStat(const std::string &kind, const std::string &leaf)
{
    auto ends = endsWith("." + leaf);
    return [kind, ends](const std::string &k) {
        if (!ends(k))
            return false;
        std::size_t pos = 0;
        while (pos < k.size()) {
            std::size_t dot = k.find('.', pos);
            if (dot == std::string::npos)
                dot = k.size();
            std::string_view seg(k.data() + pos, dot - pos);
            if (seg.size() > kind.size() &&
                seg.substr(0, kind.size()) == kind &&
                std::all_of(seg.begin() + kind.size(), seg.end(),
                            [](char c) { return c >= '0' && c <= '9'; }))
                return true;
            pos = dot + 1;
        }
        return false;
    };
}

/** A service-plane tenant stat: "svc.<tenant>.<leaf>". */
Snapshot::Pred
svcStat(const std::string &leaf)
{
    auto ends = endsWith("." + leaf);
    return [ends](const std::string &k) {
        return ends(k) && (k.compare(0, 4, "svc.") == 0 ||
                           k.find(".svc.") != std::string::npos);
    };
}

/** Engine work counters of one simulation context. */
struct Engine
{
    double events = 0;
    double epochs = 0;
    double posts = 0;
};

Engine
engineOf(hv::System &sys)
{
    return {static_cast<double>(sys.domains.executed()),
            static_cast<double>(sys.sched.epochs()),
            static_cast<double>(sys.sched.delivered())};
}

/** What a workload hands to the shared metric assembly. */
struct Window
{
    Snapshot delta;        ///< telemetry over the measured window
    Engine engine;         ///< engine work over the measured window
    /** Simulated time from first submission to last completion,
     *  summed over independent trials. */
    double spanNs = 0;
    /** Simulated time the DMA statistics cover (after warm-up). */
    double dmaNs = 0;
    /** Exact request latencies (ns), for workloads with few jobs. */
    std::vector<double> reqNs;
    /** Request latency histogram (ns), for request serving. */
    Buckets reqHist;
    bool histRequests = false;
    double good = 0;
    double completed = 0;
    // fleet only
    double migrations = 0;
    double migrationBytes = 0;
    Buckets blackout;
};

/** Fill @p r's simulated metrics, per-layer counts and digest. */
void
assemble(RepResult &r, const Window &w)
{
    const Snapshot &d = w.delta;
    const double reads = d.sum(named("shell.dma_reads"));
    const double writes = d.sum(named("shell.dma_writes"));
    const Buckets dma = d.hist(instanceStat("accel", "dma.latency_hist_ns"));
    const double span_ns = std::max(1.0, w.spanNs);
    const double dma_ns = std::max(1.0, w.dmaNs);

    auto &s = r.sim;
    s["dma_gbps"] = (reads + writes) * 64.0 / dma_ns;
    s["dma_p50_ns"] = dma.percentile(50);
    s["dma_p99_ns"] = dma.percentile(99);
    s["jobs_makespan_ms"] = span_ns / 1e6;
    if (w.histRequests) {
        s["req_p50_us"] = w.reqHist.percentile(50) / 1e3;
        s["req_p99_us"] = w.reqHist.percentile(99) / 1e3;
    } else {
        s["req_p50_us"] = exactPercentile(w.reqNs, 50) / 1e3;
        s["req_p99_us"] = exactPercentile(w.reqNs, 99) / 1e3;
    }
    s["goodput_rps"] = w.good / (span_ns * 1e-9);
    s["ok_frac"] = r.attempted == 0
                       ? 0.0
                       : static_cast<double>(r.attempted - r.failed) /
                             static_cast<double>(r.attempted);

    auto &l = r.layer;
    l["sim.events"] = w.engine.events;
    l["sim.epochs"] = w.engine.epochs;
    l["sim.events_per_epoch"] =
        w.engine.epochs > 0 ? w.engine.events / w.engine.epochs : 0;
    l["sim.cross_posts"] = w.engine.posts;

    l["ccip.dma_reads"] = reads;
    l["ccip.dma_writes"] = writes;
    l["ccip.dma_retries"] = d.sum(named("shell.dma_retries"));
    l["ccip.link_bytes_to_host"] = d.sum(endsWith(".bytes_to_host"));
    l["ccip.link_bytes_to_fpga"] = d.sum(endsWith(".bytes_to_fpga"));
    l["ccip.bridge_requests"] = d.sum(named("shell.bridge.requests"));

    const double hits = d.sum(named("iommu.iotlb.hits"));
    const double misses = d.sum(named("iommu.iotlb.misses"));
    l["iommu.iotlb_hits"] = hits;
    l["iommu.iotlb_misses"] = misses;
    l["iommu.iotlb_hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    l["iommu.conflict_evictions"] =
        d.sum(named("iommu.iotlb.conflict_evictions"));
    l["iommu.walks"] = d.sum(named("iommu.walks"));
    l["iommu.coalesced_walks"] = d.sum(named("iommu.coalesced_walks"));

    l["mem.accesses"] = d.sum(named("mem.accesses"));
    l["mem.bytes"] = d.sum(named("mem.bytes"));

    l["fpga.auditor_rejects"] =
        d.sum(instanceStat("auditor", "rejected_dmas"));
    l["fpga.auditor_forwarded"] =
        d.sum(instanceStat("auditor", "forwarded"));

    l["accel.dma_issued"] = d.sum(instanceStat("accel", "dma.reads")) +
                            d.sum(instanceStat("accel", "dma.writes"));
    double p99_min = 0, p99_max = 0;
    bool first = true;
    for (const auto &[k, b] :
         d.hists(instanceStat("accel", "dma.latency_hist_ns"))) {
        if (b.count() == 0)
            continue;
        const double p = b.percentile(99);
        p99_min = first ? p : std::min(p99_min, p);
        p99_max = first ? p : std::max(p99_max, p);
        first = false;
    }
    l["accel.dma_rtt_p99_ns_min"] = p99_min;
    l["accel.dma_rtt_p99_ns_max"] = p99_max;
    l["accel.jobs"] = d.sum(instanceStat("accel", "jobs"));
    l["accel.preempts"] = d.sum(instanceStat("accel", "preempts"));
    l["accel.resumes"] = d.sum(instanceStat("accel", "resumes"));
    l["accel.ring_polls"] = d.sum(instanceStat("accel", "ring_polls"));

    const double traps = d.sum(named("hv.mmio_traps"));
    l["hv.mmio_traps"] = traps;
    l["hv.traps_per_req"] = w.completed > 0 ? traps / w.completed : 0;
    l["hv.hypercalls"] = d.sum(named("hv.hypercalls"));
    l["hv.context_switches"] = d.sum(named("hv.context_switches"));
    l["hv.forced_resets"] = d.sum(named("hv.forced_resets"));

    l["svc.arrivals"] = d.sum(svcStat("arrivals"));
    l["svc.rejected"] = d.sum(svcStat("rejected"));
    l["svc.batches"] = d.sum(svcStat("batches"));
    l["svc.queue_p99_us"] = d.hist(svcStat("queue_ns")).percentile(99) / 1e3;
    l["svc.service_p99_us"] =
        d.hist(svcStat("service_ns")).percentile(99) / 1e3;
    l["svc.verify_failures"] = d.sum(svcStat("verify_failures"));

    const double submits = d.sum(named("hv.ring_submits"));
    const double completes = d.sum(named("hv.ring_completes"));
    l["ring.submits"] = submits;
    l["ring.completes"] = completes;
    l["ring.kicks"] = d.sum(named("hv.ring_kicks"));
    l["ring.completes_per_submit"] = submits > 0 ? completes / submits : 0;

    l["fleet.migrations"] = w.migrations;
    l["fleet.blackout_p50_us"] = w.blackout.percentile(50) / 1e3;
    l["fleet.blackout_p99_us"] = w.blackout.percentile(99) / 1e3;
    l["fleet.migration_bytes"] = w.migrationBytes;

    std::uint64_t h = d.digest();
    for (const auto *m : {&r.sim, &r.layer})
        for (const auto &[k, v] : *m)
            fnv1a(h, &v, sizeof v);
    fnv1a(h, &r.attempted, sizeof r.attempted);
    fnv1a(h, &r.failed, sizeof r.failed);
    r.digest = h;
}

void
failIf(RepResult &r, bool bad, const std::string &why)
{
    if (bad && r.correct) {
        r.correct = false;
        r.why = why;
    }
}

/**
 * The correctness gate for one job: a job that did not finish, or
 * whose output differs from the software reference, counts as
 * failed; finished-but-wrong output also marks the run incorrect.
 */
bool
gateJob(RepResult &r, bool finished_ok, bool verified)
{
    ++r.attempted;
    failIf(r, finished_ok && !verified,
           "a job's output differs from its accel::algo reference");
    if (finished_ok && verified)
        return true;
    ++r.failed;
    return false;
}

bool
finished(accel::Status st)
{
    return st == accel::Status::kDone || st == accel::Status::kError;
}

/** Attach a control-plane Chrome trace sink to @p bus when traced;
 *  of a workload's independent trials only the first is recorded. */
std::unique_ptr<sim::ChromeTraceSink>
maybeSink(const RepSpec &spec, sim::TraceBus &bus, unsigned trial = 0)
{
    if (spec.tracePrefix.empty() || trial != 0)
        return nullptr;
    return std::make_unique<sim::ChromeTraceSink>(bus, kControlKinds);
}

void
writeSink(const sim::ChromeTraceSink *sink, const std::string &path)
{
    if (!sink)
        return;
    std::ofstream os(path);
    sink->write(os);
}

// ----------------------------------------------------------- dma_mix

struct MbPort
{
    hv::AccelHandle *h = nullptr;
    mem::Gva base{};
    std::uint64_t seed = 0;
    bool writer = false;
};

void
programMembench(hv::System &sys, std::vector<MbPort> &ports,
                std::uint64_t seed, Spans *sp, const RepSpec &spec)
{
    for (std::uint32_t p = 0; p < kMbPorts; ++p) {
        MbPort port;
        port.writer = p >= kMbPorts / 2;
        port.seed = derive(seed, 100 + p);
        {
            SpanScope s(sp, "attach", "guest");
            port.h = &sys.attach(p);
        }
        {
            SpanScope s(sp, "dmaAlloc", "guest");
            port.base = port.h->dmaAlloc(kMbWorkingSet, 64);
        }
        {
            SpanScope s(sp, "program", "guest");
            using MB = accel::MembenchAccel;
            port.h->writeAppReg(MB::kRegBase, port.base.value());
            port.h->writeAppReg(MB::kRegWset, kMbWorkingSet);
            port.h->writeAppReg(MB::kRegMode,
                                port.writer ? MB::kWrite : MB::kRead);
            port.h->writeAppReg(MB::kRegSeed, port.seed);
            port.h->writeAppReg(MB::kRegTarget, kMbOps);
            port.h->writeAppReg(MB::kRegGap, 0);
        }
        ports.push_back(port);
        beat(spec);
    }
}

/**
 * A writer's memory after its job: every line it wrote holds one
 * payload byte repeated (the write ordinal's low byte). Replays the
 * port's address stream — MemBench draws line indices from
 * sim::Rng(seed + 1) — and returns the number of lines that hold
 * anything else. Lines written twice may hold either payload.
 */
std::uint64_t
badWriterLines(const MbPort &port)
{
    sim::Rng rng(port.seed + 1);
    const std::uint64_t lines = kMbWorkingSet / 64;
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> want;
    want.reserve(kMbOps);
    for (std::uint64_t i = 0; i < kMbOps; ++i)
        want[rng.below(lines)].push_back(
            static_cast<std::uint8_t>(i & 0xff));
    std::uint64_t bad = 0;
    std::uint8_t buf[64];
    for (const auto &[line, values] : want) {
        port.h->memRead(port.base + line * 64, buf, sizeof buf);
        const bool uniform =
            std::all_of(buf, buf + 64, [&](std::uint8_t b) {
                return b == buf[0];
            });
        if (!uniform || std::find(values.begin(), values.end(),
                                  buf[0]) == values.end())
            ++bad;
    }
    return bad;
}

RepResult
runDmaMix(const RepSpec &spec)
{
    RepResult r;
    Spans *sp = spec.spans;
    std::unique_ptr<hv::System> sys;
    std::vector<MbPort> ports;

    auto t = Clock::now();
    {
        SpanScope setup(sp, "setup", "bench");
        {
            SpanScope s(sp, "hv::System", "hv");
            sys = std::make_unique<hv::System>(
                hv::makeOptimusConfig("MB", kMbPorts));
        }
        programMembench(*sys, ports, spec.seed, sp, spec);
    }
    r.setupS = secondsSince(t);
    auto sink = maybeSink(spec, sys->trace);

    Window w;
    Snapshot base;
    Engine e0;
    bool warmed = false;
    std::vector<sim::Tick> done(kMbPorts, 0);
    const std::uint64_t attempted = kMbOps * kMbPorts;
    sim::Tick start = 0, warm_at = 0, last = 0;

    t = Clock::now();
    {
        SpanScope run(sp, "run", "sim");
        start = sys->now();
        for (MbPort &p : ports)
            p.h->start();
        const sim::Tick warm = start + kMbWarmup;
        const sim::Tick limit = start + kMbLimit;
        std::uint32_t left = kMbPorts;
        Publisher publish(spec);
        sys->sched.pumpUntil(
            [&]() { return left == 0 || sys->now() >= limit; },
            [&]() {
                const sim::Tick now = sys->now();
                if (!warmed && now >= warm) {
                    base.capture(sys->telemetry.root());
                    e0 = engineOf(*sys);
                    warm_at = now;
                    warmed = true;
                }
                for (std::uint32_t i = 0; i < kMbPorts; ++i) {
                    if (done[i] == 0 &&
                        finished(sys->hv.peekStatus(ports[i].h->vaccel()))) {
                        done[i] = now;
                        --left;
                    }
                }
                publish(now, [&]() {
                    std::uint64_t ok = 0;
                    for (const MbPort &p : ports)
                        ok += sys->hv.peekProgress(p.h->vaccel());
                    return Counts{attempted, ok};
                });
            });
    }
    r.runS = secondsSince(t);
    failIf(r, !warmed, "dma_mix finished inside its warm-up");

    Snapshot end;
    end.capture(sys->telemetry.root());
    w.delta = end.minus(base);
    const Engine e1 = engineOf(*sys);
    w.engine = {e1.events - e0.events, e1.epochs - e0.epochs,
                e1.posts - e0.posts};

    t = Clock::now();
    std::uint64_t failed = 0;
    {
        SpanScope verify(sp, "verify", "algo");
        for (std::uint32_t i = 0; i < kMbPorts; ++i) {
            MbPort &p = ports[i];
            auto &v = p.h->vaccel();
            const bool ok = sys->hv.peekStatus(v) == accel::Status::kDone;
            const std::uint64_t prog =
                std::min(sys->hv.peekProgress(v), kMbOps);
            failed += kMbOps - prog;
            failIf(r, ok && p.h->result() != kMbOps,
                   "MemBench RESULT differs from its op target");
            if (ok) {
                w.good += 1;
                w.reqNs.push_back(ns(done[i] - start));
                last = std::max(last, done[i]);
            }
            if (p.writer && ok) {
                const std::uint64_t bad = badWriterLines(p);
                failed += bad;
                failIf(r, bad != 0,
                       "MemBench write landed wrong data in host memory");
            }
        }
    }
    r.verifyS = secondsSince(t);
    if (last == 0)
        last = sys->now();
    w.spanNs = ns(last - start);
    w.dmaNs = ns(last - warm_at);
    w.completed = w.good;
    r.attempted = attempted;
    r.failed = std::min(failed, attempted);
    writeSink(sink.get(), spec.tracePrefix + ".json");
    assemble(r, w);
    return r;
}

// --------------------------------------------------- apps_timeshare

struct AppTenant
{
    hv::AccelHandle *h = nullptr;
    std::unique_ptr<hv::workload::Workload> wl;
};

hv::PlatformConfig
appsConfig()
{
    hv::PlatformConfig cfg = hv::makeOptimusConfig("AES", 8);
    cfg.apps.clear();
    for (const AppJob &a : kApps)
        cfg.apps.push_back(a.app);
    return cfg;
}

void
programApps(hv::System &sys, std::vector<AppTenant> &tenants,
            std::uint64_t seed, Spans *sp, const RepSpec &spec)
{
    for (std::uint32_t slot = 0; slot < std::size(kApps); ++slot) {
        const AppJob &a = kApps[slot];
        sys.hv.setPolicy(slot, hv::SchedPolicy::kRoundRobin, kSlice);
        for (unsigned k = 0; k < kTenantsPerSlot; ++k) {
            const std::uint64_t idx = slot * kTenantsPerSlot + k;
            AppTenant t;
            {
                SpanScope s(sp, "attach", "guest");
                t.h = &sys.attach(slot);
            }
            t.wl = hv::workload::Workload::create(
                a.app, *t.h, jobBytes(a, seed, idx),
                derive(seed, 200 + idx));
            {
                SpanScope s(sp, "program", "guest");
                t.wl->program();
            }
            {
                SpanScope s(sp, "setupStateBuffer", "guest");
                t.h->setupStateBuffer();
            }
            tenants.push_back(std::move(t));
            beat(spec);
        }
    }
}

RepResult
runApps(const RepSpec &spec)
{
    RepResult r;
    Spans *sp = spec.spans;
    std::unique_ptr<hv::System> sys;
    std::vector<AppTenant> tenants;

    auto t = Clock::now();
    {
        SpanScope setup(sp, "setup", "bench");
        {
            SpanScope s(sp, "hv::System", "hv");
            sys = std::make_unique<hv::System>(appsConfig());
        }
        programApps(*sys, tenants, spec.seed, sp, spec);
    }
    r.setupS = secondsSince(t);
    auto sink = maybeSink(spec, sys->trace);

    Window w;
    Snapshot base;
    base.capture(sys->telemetry.root());
    const Engine e0 = engineOf(*sys);
    const std::size_t n = tenants.size();
    std::vector<sim::Tick> done(n, 0);
    sim::Tick start = 0, last = 0;

    t = Clock::now();
    {
        SpanScope run(sp, "run", "sim");
        start = sys->now();
        for (AppTenant &a : tenants)
            a.h->start();
        const sim::Tick limit = start + kAppsLimit;
        std::size_t left = n;
        Publisher publish(spec);
        sys->sched.pumpUntil(
            [&]() { return left == 0 || sys->now() >= limit; },
            [&]() {
                const sim::Tick now = sys->now();
                for (std::size_t i = 0; i < n; ++i) {
                    if (done[i] == 0 &&
                        finished(sys->hv.peekStatus(tenants[i].h->vaccel()))) {
                        done[i] = now;
                        --left;
                    }
                }
                publish(now, [&]() { return Counts{n, n - left}; });
            });
    }
    r.runS = secondsSince(t);

    Snapshot end;
    end.capture(sys->telemetry.root());
    w.delta = end.minus(base);
    const Engine e1 = engineOf(*sys);
    w.engine = {e1.events - e0.events, e1.epochs - e0.epochs,
                e1.posts - e0.posts};

    t = Clock::now();
    {
        SpanScope verify(sp, "verify", "algo");
        for (std::size_t i = 0; i < n; ++i) {
            const bool done_ok = sys->hv.peekStatus(
                                     tenants[i].h->vaccel()) ==
                                 accel::Status::kDone;
            if (!gateJob(r, done_ok,
                         done_ok && tenants[i].wl->verify()))
                continue;
            w.good += 1;
            w.reqNs.push_back(ns(done[i] - start));
            last = std::max(last, done[i]);
        }
    }
    r.verifyS = secondsSince(t);
    if (last == 0)
        last = sys->now();
    w.spanNs = w.dmaNs = ns(last - start);
    w.completed = w.good;
    writeSink(sink.get(), spec.tracePrefix + ".json");
    assemble(r, w);
    return r;
}

// ------------------------------------------------- request serving

svc::TenantConfig
shaTenant(const std::string &name, std::uint64_t seed, double rate,
          std::uint32_t slot, ring::CmdPath path)
{
    svc::TenantConfig cfg;
    cfg.name = name;
    cfg.app = "SHA";
    cfg.bytes = kReqBytes;
    cfg.seed = seed;
    cfg.slot = slot;
    cfg.arrivals.kind = svc::ArrivalKind::kPoisson;
    cfg.arrivals.ratePerSec = rate;
    cfg.sloNs = kSloNs;
    cfg.cmdPath = path;
    return cfg;
}

/** Request accounting over every tenant binding. */
struct Served
{
    std::uint64_t arrivals = 0;
    std::uint64_t rejected = 0;
    std::uint64_t dropped = 0;
    std::uint64_t completed = 0;
    std::uint64_t verifyFailures = 0;
    std::uint64_t goodput = 0;

    void
    add(const svc::Tenant &t)
    {
        arrivals += t.arrivals();
        rejected += t.rejected();
        dropped += t.dropped();
        completed += t.completed();
        verifyFailures += t.verifyFailures();
        goodput += t.goodput();
    }

    void
    add(const Served &o)
    {
        arrivals += o.arrivals;
        rejected += o.rejected;
        dropped += o.dropped;
        completed += o.completed;
        verifyFailures += o.verifyFailures;
        goodput += o.goodput;
    }

    /** Rejected, dropped, still queued or in flight when the run
     *  ended, or completed with output that failed verification. */
    std::uint64_t
    failed() const
    {
        const std::uint64_t settled = rejected + dropped + completed;
        const std::uint64_t outstanding =
            arrivals > settled ? arrivals - settled : 0;
        return rejected + dropped + outstanding + verifyFailures;
    }
};

void
settle(RepResult &r, Window &w, const Served &s)
{
    r.attempted = s.arrivals;
    r.failed = std::min(s.failed(), s.arrivals);
    w.good = static_cast<double>(s.goodput);
    w.completed = static_cast<double>(s.completed);
    w.histRequests = true;
    w.reqHist = w.delta.hist(svcStat("e2e_ns"));
    failIf(r, s.verifyFailures != 0,
           "a served request's output failed verification");
    failIf(r, s.arrivals == 0, "no request arrived");
}

// ---------------------------------------------------- svc_timeshare

struct SvcSystem
{
    std::unique_ptr<hv::System> sys;
    std::unique_ptr<svc::ServicePlane> plane;
};

void
buildSvc(SvcSystem &s, std::uint64_t seed, unsigned trial, Spans *sp,
         const RepSpec &spec)
{
    {
        SpanScope c(sp, "hv::System", "hv");
        s.sys = std::make_unique<hv::System>(
            hv::makeOptimusConfig("SHA", 2));
    }
    for (std::uint32_t slot = 0; slot < 2; ++slot)
        s.sys->hv.setPolicy(slot, hv::SchedPolicy::kRoundRobin,
                            kSlice);
    {
        SpanScope c(sp, "ServicePlane", "svc");
        s.plane = std::make_unique<svc::ServicePlane>(*s.sys);
    }
    for (std::uint32_t slot = 0; slot < 2; ++slot) {
        for (ring::CmdPath path :
             {ring::CmdPath::kMmio, ring::CmdPath::kRing}) {
            const std::uint64_t idx = 4 * trial + 2 * slot +
                                      (path == ring::CmdPath::kRing);
            SpanScope c(sp, "addTenant", "svc");
            s.plane->addTenant(shaTenant(
                sim::strprintf("s%u%s", slot, ring::cmdPathName(path)),
                derive(seed, 300 + idx), kSvcRate, slot, path));
            beat(spec);
        }
    }
}

Served
served(const svc::ServicePlane &plane)
{
    Served sv;
    for (std::size_t i = 0; i < plane.numTenants(); ++i)
        sv.add(plane.tenant(i));
    return sv;
}

RepResult
runSvc(const RepSpec &spec)
{
    RepResult r;
    Window w;
    Served total;
    Spans *sp = spec.spans;
    Snapshot base, end;
    for (unsigned trial = 0; trial < kSvcTrials; ++trial) {
        const std::string tag = sim::strprintf("trial%u.", trial);
        SvcSystem s;
        auto t = Clock::now();
        {
            SpanScope setup(sp, "setup", "bench");
            buildSvc(s, spec.seed, trial, sp, spec);
        }
        r.setupS += secondsSince(t);
        hv::System &sys = *s.sys;
        svc::ServicePlane &plane = *s.plane;
        auto sink = maybeSink(spec, sys.trace, trial);
        base.capture(sys.telemetry.root(), tag);
        const Engine e0 = engineOf(sys);

        t = Clock::now();
        const sim::Tick start = sys.now();
        sim::Tick last = start;
        {
            SpanScope run(sp, "run", "sim");
            // ServicePlane::run() with the drain bounded: a stalled
            // tenant never goes idle, so the trial ends at a fixed
            // drain allowance and its leftovers count as failed.
            plane.beginWindow(kSvcWindow);
            const sim::Tick horizon = plane.horizon();
            const sim::Tick limit = horizon + kSvcDrain;
            std::uint64_t last_completed = 0;
            Publisher publish(spec);
            sys.sched.pumpUntil(
                [&]() {
                    return (sys.now() >= horizon && plane.idle()) ||
                           sys.now() >= limit;
                },
                [&]() {
                    plane.pump();
                    std::uint64_t c = 0;
                    for (std::size_t i = 0; i < plane.numTenants(); ++i)
                        c += plane.tenant(i).completed();
                    if (c != last_completed) {
                        last_completed = c;
                        last = sys.now();
                    }
                    publish(sys.now(), [&]() {
                        const Served sv = served(plane);
                        return Counts{sv.arrivals,
                                      sv.completed - sv.verifyFailures};
                    });
                });
        }
        r.runS += secondsSince(t);

        end.capture(sys.telemetry.root(), tag);
        const Engine e1 = engineOf(sys);
        w.engine.events += e1.events - e0.events;
        w.engine.epochs += e1.epochs - e0.epochs;
        w.engine.posts += e1.posts - e0.posts;
        w.spanNs += ns(last - start);
        total.add(served(plane));
        writeSink(sink.get(), spec.tracePrefix + ".json");
    }
    w.dmaNs = w.spanNs;
    w.delta = end.minus(base);
    settle(r, w, total);
    assemble(r, w);
    return r;
}

// -------------------------------------------------- fleet_rebalance

fleet::ClusterConfig
fleetConfig()
{
    fleet::ClusterConfig cfg;
    cfg.nodes = kFleetNodes;
    cfg.policy = fleet::Policy::kLeastLoaded;
    cfg.node = hv::makeOptimusConfig("SHA", 1);
    cfg.rebalanceInterval = kFleetRebalance;
    cfg.migrationCooldown = 2 * kFleetRebalance;
    cfg.loadImbalanceThreshold = kFleetImbalance;
    return cfg;
}

std::unique_ptr<fleet::Cluster>
buildFleet(std::uint64_t seed, unsigned trial, Spans *sp,
           const RepSpec &spec)
{
    std::unique_ptr<fleet::Cluster> cl;
    {
        SpanScope c(sp, "fleet::Cluster", "fleet");
        cl = std::make_unique<fleet::Cluster>(fleetConfig());
    }
    for (unsigned n = 0; n < kFleetNodes; ++n)
        cl->node(n).hv.setPolicy(0, hv::SchedPolicy::kRoundRobin,
                                 kSlice);
    for (unsigned i = 0; i < 2 * kFleetNodes; ++i) {
        fleet::FleetTenantSpec t;
        t.svc = shaTenant(sim::strprintf("t%u", i),
                          derive(seed, 400 + 2 * kFleetNodes * trial + i),
                          kFleetRates[i % 2], 0, ring::CmdPath::kMmio);
        SpanScope c(sp, "addTenant", "fleet");
        cl->addTenant(t);
        beat(spec);
    }
    return cl;
}

void
captureFleet(Snapshot &s, fleet::Cluster &cl, const std::string &tag)
{
    for (unsigned n = 0; n < cl.numNodes(); ++n)
        s.capture(cl.node(n).telemetry.root(),
                  tag + sim::strprintf("node%u.", n));
}

RepResult
runFleet(const RepSpec &spec)
{
    RepResult r;
    Window w;
    Served total;
    Spans *sp = spec.spans;
    Snapshot base, end;
    for (unsigned trial = 0; trial < kFleetTrials; ++trial) {
        const std::string tag = sim::strprintf("trial%u.", trial);
        std::unique_ptr<fleet::Cluster> cl;
        auto t = Clock::now();
        {
            SpanScope setup(sp, "setup", "bench");
            cl = buildFleet(spec.seed, trial, sp, spec);
        }
        r.setupS += secondsSince(t);
        std::vector<std::unique_ptr<sim::ChromeTraceSink>> sinks;
        for (unsigned n = 0; n < cl->numNodes(); ++n)
            sinks.push_back(maybeSink(spec, cl->node(n).trace, trial));
        captureFleet(base, *cl, tag);
        hv::System &n0 = cl->node(0); // one engine drives all nodes
        const Engine e0 = engineOf(n0);

        t = Clock::now();
        const sim::Tick start = cl->now();
        sim::Tick last = start;
        {
            SpanScope run(sp, "run", "sim");
            std::uint64_t last_completed = 0;
            Publisher publish(spec);
            cl->setBarrierProbe([&]() {
                const std::uint64_t c = cl->fleetCompleted();
                if (c != last_completed) {
                    last_completed = c;
                    last = cl->now();
                }
                publish(cl->now(),
                        [&]() { return Counts{cl->fleetArrivals(), c}; });
            });
            cl->run(kFleetWindow);
            cl->setBarrierProbe(nullptr);
        }
        r.runS += secondsSince(t);

        captureFleet(end, *cl, tag);
        const Engine e1 = engineOf(n0);
        w.engine.events += e1.events - e0.events;
        w.engine.epochs += e1.epochs - e0.epochs;
        w.engine.posts += e1.posts - e0.posts;
        w.spanNs += ns(last - start);
        for (std::size_t i = 0; i < cl->numTenants(); ++i)
            for (unsigned n = 0; n < cl->numNodes(); ++n)
                total.add(cl->binding(i, n));
        w.migrations += static_cast<double>(cl->migrationsCompleted());
        w.migrationBytes += static_cast<double>(cl->migrationBytes());
        w.blackout.add(cl->blackoutHist());
        for (unsigned n = 0; n < sinks.size(); ++n)
            writeSink(sinks[n].get(),
                      spec.tracePrefix + sim::strprintf("-node%u.json", n));
    }
    w.dmaNs = w.spanNs;
    w.delta = end.minus(base);
    settle(r, w, total);
    assemble(r, w);
    return r;
}

// --------------------------------------------------- reference jobs

std::vector<std::pair<std::string, std::uint64_t>>
noRefJobs(std::uint64_t)
{
    return {};
}

std::vector<std::pair<std::string, std::uint64_t>>
appRefJobs(std::uint64_t seed)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    for (const AppJob &a : kApps)
        out.emplace_back(a.app, jobBytes(a, seed, 0));
    return out;
}

std::vector<std::pair<std::string, std::uint64_t>>
shaRefJobs(std::uint64_t)
{
    return {{"SHA", kReqBytes}};
}

std::vector<std::uint8_t>
randomBytes(std::uint64_t n, std::uint64_t seed)
{
    sim::Rng rng(seed);
    std::vector<std::uint8_t> v(n);
    for (std::uint64_t i = 0; i < n; i += 8) {
        const std::uint64_t word = rng.next();
        std::memcpy(v.data() + i, &word,
                    std::min<std::uint64_t>(8, n - i));
    }
    return v;
}

} // namespace

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = {
        {"dma_mix", runDmaMix, noRefJobs},
        {"apps_timeshare", runApps, appRefJobs},
        {"svc_timeshare", runSvc, shaRefJobs},
        {"fleet_rebalance", runFleet, shaRefJobs},
    };
    return all;
}

double
refMbPerSec(const std::string &app, std::uint64_t bytes,
            std::uint64_t seed)
{
    const std::vector<std::uint8_t> input = randomBytes(bytes, seed);
    std::function<void()> once;
    std::vector<std::uint8_t> scratch;
    std::vector<std::int32_t> samples;
    algo::Aes128::Key key{};
    std::unique_ptr<algo::Aes128> aes;
    algo::ReedSolomon rs;
    std::vector<std::uint8_t> codewords;
    algo::GrayImage image;
    volatile std::uint64_t sink = 0;

    if (app == "AES") {
        aes = std::make_unique<algo::Aes128>(key);
        once = [&]() {
            scratch = input;
            aes->encryptEcb(scratch.data(), scratch.size());
        };
    } else if (app == "MD5") {
        once = [&]() { sink = algo::Md5::hash(input.data(), bytes)[0]; };
    } else if (app == "SHA") {
        once = [&]() {
            sink = algo::Sha512::hash(input.data(), bytes)[0];
        };
    } else if (app == "FIR") {
        samples.resize(bytes / 4);
        std::memcpy(samples.data(), input.data(), samples.size() * 4);
        once = [&]() {
            algo::Fir16 f(algo::Fir16::defaultTaps());
            sink = static_cast<std::uint64_t>(f.filter(samples).back());
        };
    } else if (app == "GRN") {
        once = [&]() {
            algo::GaussianSource g(seed);
            double acc = 0;
            for (std::uint64_t i = 0; i < bytes / 8; ++i)
                acc += g.next();
            sink = static_cast<std::uint64_t>(acc);
        };
    } else if (app == "RSD") {
        // Codewords carrying t/2 symbol errors each, decoded in place.
        const std::size_t n = std::max<std::uint64_t>(bytes / 256, 1);
        codewords.assign(n * algo::ReedSolomon::kN, 0);
        for (std::size_t c = 0; c < n; ++c) {
            std::uint8_t *cw = codewords.data() + c * algo::ReedSolomon::kN;
            rs.encode(input.data() + (c * 223) % (bytes - 223), cw);
            for (std::size_t e = 0; e < algo::ReedSolomon::kT / 2; ++e)
                cw[(e * 37 + c) % algo::ReedSolomon::kN] ^= 0x5a;
        }
        once = [&, n]() {
            scratch = codewords;
            for (std::size_t c = 0; c < n; ++c)
                sink = static_cast<std::uint64_t>(rs.decode(
                    scratch.data() + c * algo::ReedSolomon::kN));
        };
    } else if (app == "SW") {
        const std::size_t len =
            std::clamp<std::uint64_t>(bytes / 2, 64, 4096);
        scratch.resize(2 * len);
        for (std::size_t i = 0; i < scratch.size(); ++i)
            scratch[i] = static_cast<std::uint8_t>("ACGT"[input[i % bytes] & 3]);
        once = [&, len]() {
            std::string_view a(reinterpret_cast<const char *>(scratch.data()), len);
            std::string_view b(reinterpret_cast<const char *>(scratch.data()) + len, len);
            sink = static_cast<std::uint64_t>(algo::smithWatermanScore(a, b));
        };
    } else if (app == "GAU") {
        image.width = 1024;
        image.height = static_cast<std::uint32_t>(
            std::max<std::uint64_t>(bytes / 1024, 3));
        image.pixels = randomBytes(std::uint64_t(image.width) * image.height,
                                   seed);
        once = [&]() { sink = algo::gaussianBlur3x3(image).pixels[0]; };
    } else {
        return 0;
    }

    // Repeat for at least 50 ms so short kernels are timed over many
    // calls.
    const auto t = Clock::now();
    std::uint64_t iters = 0;
    do {
        once();
        ++iters;
    } while (secondsSince(t) < 0.05);
    (void)sink;
    return static_cast<double>(bytes) * static_cast<double>(iters) /
           secondsSince(t) / 1e6;
}

bool
selfTest(std::uint64_t seed, std::string &report)
{
    hv::System sys(hv::makeOptimusConfig("GRN", 1));
    hv::AccelHandle &h = sys.attach(0);
    const std::uint64_t grn_seed = derive(seed, 900);
    auto wl = hv::workload::Workload::create("GRN", h, 4096, grn_seed);
    wl->program();
    h.start();
    const bool done = h.wait() == accel::Status::kDone;
    RepResult clean;
    gateJob(clean, done, done && wl->verify());

    // GRN's only buffer is its output, the first block of the DMA
    // window; confirm that against the reference before corrupting.
    const mem::Gva out = h.vaccel().windowBase();
    double first = 0;
    h.memRead(out, &first, sizeof first);
    algo::GaussianSource ref(grn_seed);
    const bool located = first == ref.next();
    const double wrong = first + 1.0;
    h.memWrite(out, &wrong, sizeof wrong);
    RepResult corrupted;
    gateJob(corrupted, done, done && wl->verify());
    const bool passed = clean.correct && clean.failed == 0;
    const bool caught = !corrupted.correct && corrupted.failed == 1;

    report = std::string("clean job passes the gate: ") +
             (passed ? "yes" : "NO") +
             "; corrupted output located: " + (located ? "yes" : "NO") +
             "; corrupted output caught by the gate: " +
             (caught ? "yes" : "NO");
    return passed && located && caught;
}

} // namespace perfbench
