/**
 * @file
 * perfbench: the repository benchmark. Runs one workload for a fixed
 * host-time budget as repeated, identically seeded repetitions, gates
 * correctness and determinism, and prints every metric by name with
 * its unit and whether it is host or simulated time. The last stdout
 * line is one JSON object: {"correct", "attempted", "failed",
 * "metrics"} — end-to-end metrics untraced, per-layer metrics with
 * --trace 1.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out DIR]
 *
 * NAME "all" runs the four workloads in turn in one process, each for
 * S seconds and with its own peak RSS; the hang guard's budget is then
 * four workload budgets.
 */

#include <malloc.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "measure.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct Metric
{
    std::string name;
    std::string unit;
    std::string kind; ///< "host" or "sim"
};

/** End-to-end metrics, in BENCHMARK.json order. */
const Metric kEndToEnd[] = {
    {"setup_s", "s", "host"},
    {"run_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},
    {"dma_gbps", "GB/s", "sim"},
    {"dma_p50_ns", "ns", "sim"},
    {"dma_p99_ns", "ns", "sim"},
    {"jobs_makespan_ms", "ms", "sim"},
    {"req_p50_us", "us", "sim"},
    {"req_p99_us", "us", "sim"},
    {"goodput_rps", "1/s", "sim"},
    {"ok_frac", "ratio", "sim"},
};

/** Apps whose software reference the traced run times. */
const char *const kRefApps[] = {"AES", "MD5", "SHA", "FIR",
                                "GRN", "RSD", "SW",  "GAU"};

/** Span layers whose self time the traced run reports. */
const char *const kSpanLayers[] = {"bench", "hv",  "guest", "svc",
                                   "fleet", "sim", "algo"};

/** Per-layer metrics (BENCHMARK.json order), with units. */
std::vector<Metric>
perLayer()
{
    std::vector<Metric> m = {
        {"sim.events", "count", "sim"},
        {"sim.epochs", "count", "sim"},
        {"sim.events_per_epoch", "ratio", "sim"},
        {"sim.cross_posts", "count", "sim"},
        {"sim.host_ns_per_event", "ns", "host"},
        {"ccip.dma_reads", "count", "sim"},
        {"ccip.dma_writes", "count", "sim"},
        {"ccip.dma_retries", "count", "sim"},
        {"ccip.link_bytes_to_host", "B", "sim"},
        {"ccip.link_bytes_to_fpga", "B", "sim"},
        {"ccip.bridge_requests", "count", "sim"},
        {"iommu.iotlb_hits", "count", "sim"},
        {"iommu.iotlb_misses", "count", "sim"},
        {"iommu.iotlb_hit_ratio", "ratio", "sim"},
        {"iommu.conflict_evictions", "count", "sim"},
        {"iommu.walks", "count", "sim"},
        {"iommu.coalesced_walks", "count", "sim"},
        {"mem.accesses", "count", "sim"},
        {"mem.bytes", "B", "sim"},
        {"fpga.auditor_rejects", "count", "sim"},
        {"fpga.auditor_forwarded", "count", "sim"},
        {"accel.dma_issued", "count", "sim"},
        {"accel.dma_rtt_p99_ns_min", "ns", "sim"},
        {"accel.dma_rtt_p99_ns_max", "ns", "sim"},
        {"accel.jobs", "count", "sim"},
        {"accel.preempts", "count", "sim"},
        {"accel.resumes", "count", "sim"},
        {"accel.ring_polls", "count", "sim"},
        {"algo.verify_s", "s", "host"},
    };
    for (const char *app : kRefApps)
        m.push_back({std::string("algo.ref_mb_per_s.") + app, "MB/s",
                     "host"});
    const std::vector<Metric> rest = {
        {"hv.mmio_traps", "count", "sim"},
        {"hv.traps_per_req", "ratio", "sim"},
        {"hv.hypercalls", "count", "sim"},
        {"hv.context_switches", "count", "sim"},
        {"hv.forced_resets", "count", "sim"},
        {"guest.setup_s", "s", "host"},
        {"svc.arrivals", "count", "sim"},
        {"svc.rejected", "count", "sim"},
        {"svc.batches", "count", "sim"},
        {"svc.queue_p99_us", "us", "sim"},
        {"svc.service_p99_us", "us", "sim"},
        {"svc.verify_failures", "count", "sim"},
        {"ring.submits", "count", "sim"},
        {"ring.completes", "count", "sim"},
        {"ring.kicks", "count", "sim"},
        {"ring.completes_per_submit", "ratio", "sim"},
        {"fleet.migrations", "count", "sim"},
        {"fleet.blackout_p50_us", "us", "sim"},
        {"fleet.blackout_p99_us", "us", "sim"},
        {"fleet.migration_bytes", "B", "sim"},
        {"trace.overhead_s", "s", "host"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const char *layer : kSpanLayers)
        m.push_back({std::string("span.") + layer + ".self_s", "s",
                     "host"});
    return m;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out = ".perfbench";
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n"
                 "workloads: all",
                 msg);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = value();
        } else if (k == "--seed") {
            const std::string v = value();
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (k == "--seconds") {
            const std::string v = value();
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || a.seconds <= 0 ||
                a.seconds > 120)
                usage("--seconds takes a number in (0, 120]");
        } else if (k == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--out") {
            a.out = value();
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    return a;
}

/**
 * Hang guard. A repetition whose simulated time stops advancing for
 * kStallSeconds of host time (set-up steps count as progress), or a
 * run that outlives its whole budget, fails: the guard reports that
 * repetition's operations, those still outstanding as failed, and ends
 * the process without waiting on the simulation.
 */
class HangGuard
{
  public:
    static constexpr double kStallSeconds = 20;

    /** Host budget of one workload run for --seconds @p s; run.py
     *  mirrors it to time out just after the guard would fire. */
    static double budget(double s) { return std::min(165.0, s + 120.0); }

    HangGuard(Progress &p, double budget_s)
        : _p(p), _budget(budget_s),
          _thread([this]() { loop(); })
    {
    }
    ~HangGuard() { finish(); }
    HangGuard(const HangGuard &) = delete;
    HangGuard &operator=(const HangGuard &) = delete;

    /** Held while the guard checks and reports; a report being
     *  printed holds it too, so the two never interleave. */
    std::mutex &outputMutex() { return _m; }

    /** Stop the guard; main owns stdout from here on. */
    void
    finish()
    {
        {
            std::lock_guard<std::mutex> g(_m);
            _done = true;
        }
        _cv.notify_all();
        if (_thread.joinable())
            _thread.join();
    }

  private:
    void
    loop()
    {
        const auto t0 = Clock::now();
        auto last_change = t0;
        std::uint64_t last_tick = 0, last_beats = 0;
        std::unique_lock<std::mutex> lk(_m);
        while (!_done) {
            _cv.wait_for(lk, std::chrono::milliseconds(200));
            if (_done)
                return;
            const std::uint64_t tick = _p.tick.load();
            const std::uint64_t beats = _p.beats.load();
            if (tick != last_tick || beats != last_beats) {
                last_tick = tick;
                last_beats = beats;
                last_change = Clock::now();
            }
            const bool stalled =
                secondsSince(last_change) > kStallSeconds;
            if (!stalled && secondsSince(t0) < _budget)
                continue;
            const std::uint64_t att = _p.attempted.load();
            const std::uint64_t ok = std::min(_p.ok.load(), att);
            std::fprintf(stderr,
                         "perfbench: hang guard: %s at simulated tick "
                         "%llu; %llu of %llu operations outstanding "
                         "count as failed\n",
                         stalled ? "simulated time stopped advancing"
                                 : "run exceeded its host-time budget",
                         static_cast<unsigned long long>(tick),
                         static_cast<unsigned long long>(att - ok),
                         static_cast<unsigned long long>(att));
            std::printf("{\"correct\": false, \"attempted\": %llu, "
                        "\"failed\": %llu, \"metrics\": {}}\n",
                        static_cast<unsigned long long>(att),
                        static_cast<unsigned long long>(att - ok));
            std::fflush(stdout);
            std::fflush(stderr);
            std::_Exit(1);
        }
    }

    Progress &_p;
    double _budget;
    std::mutex _m;
    std::condition_variable _cv;
    bool _done = false;
    std::thread _thread; // last: starts after the members it uses
};

/** Restart the peak-RSS count at what is resident now, after handing
 *  freed heap back to the system, so a workload's peak is its own. */
void
resetPeakRss()
{
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set since the last resetPeakRss(), in MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    double kib = 0;
    while (status >> key) {
        if (key == "VmHWM:") {
            status >> kib;
            break;
        }
    }
    return kib / 1024.0;
}

std::string
fmtValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printTable(const std::vector<Metric> &metrics,
           const std::map<std::string, double> &values)
{
    for (const Metric &m : metrics) {
        auto it = values.find(m.name);
        std::printf("  %-28s %16.6g %-6s %s\n", m.name.c_str(),
                    it == values.end() ? 0.0 : it->second,
                    m.unit.c_str(), m.kind.c_str());
    }
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics,
          const std::map<std::string, double> &values)
{
    std::string s = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        auto it = values.find(m.name);
        s += std::string(first ? "" : ", ") + "\"" + m.name +
             "\": {\"value\": " +
             fmtValue(it == values.end() ? 0.0 : it->second) +
             ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

/**
 * Run @p wl for --seconds of repetitions and print its report, ending
 * with the JSON result line. Returns whether the correctness gate
 * passed.
 */
bool
runWorkload(const Workload &wl, const Args &args, bool self_ok,
            const std::string &report, Progress &progress,
            std::mutex &output)
{
    const std::string tag = std::string(wl.name) + "-seed" +
                            std::to_string(args.seed);

    // Repetitions of one seed until the host-time budget is spent. In
    // a traced run they alternate untraced / traced, so tracing
    // overhead is measured on interleaved pairs.
    Spans spans;
    std::vector<RepResult> plain, traced;
    std::vector<double> setups, refs, run_ratio;
    resetPeakRss();
    const auto t0 = Clock::now();
    referenceSeconds(); // warm-up; the kernel then brackets each rep
    double ref_before = referenceSeconds();
    refs.push_back(ref_before);
    for (int rep = 0;; ++rep) {
        const bool tr = args.trace && rep % 2 == 1;
        RepSpec spec;
        spec.seed = args.seed;
        spec.progress = &progress;
        if (tr) {
            spans.setRep(rep);
            spec.spans = &spans;
            spec.tracePrefix = args.out + "/trace-" + tag;
        }
        progress.tick = 0;
        progress.attempted = 0;
        progress.ok = 0;
        RepResult r = wl.run(spec);
        const double ref_after = referenceSeconds();
        refs.push_back(ref_after);
        if (!tr)
            run_ratio.push_back(r.runS /
                                (0.5 * (ref_before + ref_after)));
        ref_before = ref_after;
        setups.push_back(r.setupS);
        (tr ? traced : plain).push_back(std::move(r));

        const double elapsed = secondsSince(t0);
        const double per_rep = elapsed / (rep + 1);
        const bool enough =
            rep >= 1 && (!args.trace || !traced.empty());
        if (enough && (elapsed >= args.seconds ||
                       elapsed + per_rep > 1.15 * args.seconds))
            break;
    }
    // Correctness and determinism gate. Every repetition of a seed
    // repeats its operation counts exactly (they are in the digest), so
    // the result reports one repetition's: the same for a seed however
    // many repetitions fit in --seconds.
    bool correct = self_ok;
    std::string why = self_ok ? "" : "self-test: " + report;
    const RepResult &first = plain.front();
    const std::uint64_t attempted = first.attempted;
    const std::uint64_t failed = first.failed;
    std::vector<double> run_s, verify_s;
    for (const auto *set : {&plain, &traced}) {
        for (const RepResult &r : *set) {
            verify_s.push_back(r.verifyS);
            if (correct && !r.correct) {
                correct = false;
                why = r.why;
            }
            if (correct && r.digest != first.digest) {
                correct = false;
                why = "simulated metrics or counts differ between "
                      "repetitions of one seed";
            }
        }
    }
    for (const RepResult &r : plain)
        run_s.push_back(r.runS);

    std::map<std::string, double> e2e = first.sim;
    // Host times in reference units: the host's speed drifts by tens
    // of percent over minutes, and dividing by the reference kernel
    // timed before and after each repetition cancels that drift
    // (NOTES.md).
    const double ref_s = median(refs);
    e2e["setup_s"] = median(setups) * kReferenceNominalS / ref_s;
    e2e["run_s"] = median(run_ratio) * kReferenceNominalS;
    e2e["peak_rss_mb"] = peakRssMb();

    std::map<std::string, double> layer = first.layer;
    if (args.trace) {
        std::vector<double> traced_run, guest;
        std::map<std::string, std::vector<double>> self;
        for (const RepResult &r : traced)
            traced_run.push_back(r.runS);
        for (int rep = 1; rep < static_cast<int>(plain.size() +
                                                  traced.size());
             rep += 2) {
            const auto st = spans.selfTime(rep);
            for (const char *l : kSpanLayers) {
                auto it = st.find(l);
                self[l].push_back(it == st.end() ? 0.0 : it->second);
            }
            const auto tt = spans.totalTime(rep);
            auto it = tt.find("guest");
            guest.push_back(it == tt.end() ? 0.0 : it->second);
        }
        const double events = layer["sim.events"];
        layer["sim.host_ns_per_event"] =
            events > 0 ? median(run_s) * 1e9 / events : 0;
        layer["algo.verify_s"] = median(verify_s);
        layer["guest.setup_s"] = median(guest);
        layer["trace.overhead_s"] = median(traced_run) - median(run_s);
        for (const char *l : kSpanLayers)
            layer[std::string("span.") + l + ".self_s"] =
                median(self[l]);
        for (const auto &[app, bytes] : wl.refJobs(args.seed)) {
            ++progress.beats;
            layer["algo.ref_mb_per_s." + app] =
                refMbPerSec(app, bytes, args.seed);
        }
        const std::string path = args.out + "/spans-" + tag + ".json";
        if (!spans.writeJson(path))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
    }
    std::lock_guard<std::mutex> hold(output); // no hang report mid-print
    const double fail_frac =
        attempted ? static_cast<double>(failed) /
                        static_cast<double>(attempted)
                  : 0.0;
    const std::vector<Metric> e2e_metrics(std::begin(kEndToEnd),
                                          std::end(kEndToEnd));
    std::printf("perfbench %s seed=%llu: %zu repetitions (%zu traced) "
                "in %.1f s host\n",
                wl.name, static_cast<unsigned long long>(args.seed),
                plain.size() + traced.size(), traced.size(),
                secondsSince(t0));
    std::printf("self-test: %s\n", report.c_str());
    std::printf("correctness gate: %s%s%s\n", correct ? "pass" : "FAIL",
                correct ? "" : " - ", why.c_str());
    std::printf("end-to-end (host = simulator wall-clock, sim = "
                "simulated time/work; sim values repeat exactly per "
                "seed):\n");
    printTable(e2e_metrics, e2e);
    std::printf("  host times are normalized to the reference kernel "
                "(nominal %.3g s, this run %.4g s); raw medians: "
                "setup %.4g s, run %.4g s (min %.4g, max %.4g over "
                "%zu untraced repetitions)\n",
                kReferenceNominalS, ref_s, median(setups), median(run_s),
                *std::min_element(run_s.begin(), run_s.end()),
                *std::max_element(run_s.begin(), run_s.end()),
                run_s.size());
    std::printf("  %-28s %16.6g %-6s %s\n", "fail_frac", fail_frac,
                "ratio", "sim (failed / attempted = 1 - ok_frac)");
    std::printf("note: simulated metrics come from a model calibrated "
                "to published HARP characteristics "
                "(sim/platform_params.hh); no held-out hardware "
                "measurements exist, so they are unvalidated and no "
                "error figure is given.\n");
    if (args.trace) {
        std::printf("per-layer (measured window; spans and Chrome "
                    "trace in %s):\n",
                    args.out.c_str());
        printTable(perLayer(), layer);
        printJson(correct, attempted, failed, perLayer(), layer);
    } else {
        printJson(correct, attempted, failed, e2e_metrics, e2e);
    }
    std::fflush(stdout);
    return correct;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    std::string report;
    const bool self_ok = selfTest(args.seed, report);

    // "all" runs every workload in turn in this one process.
    std::vector<const Workload *> selected;
    for (const Workload &w : workloads())
        if (args.workload == "all" || args.workload == w.name)
            selected.push_back(&w);
    if (selected.empty())
        usage(("unknown workload '" + args.workload + "'").c_str());

    std::error_code ec;
    std::filesystem::create_directories(args.out, ec);

    Progress progress;
    HangGuard guard(progress,
                    static_cast<double>(selected.size()) *
                        HangGuard::budget(args.seconds));
    bool ok = true;
    for (const Workload *wl : selected)
        ok = runWorkload(*wl, args, self_ok, report, progress,
                         guard.outputMutex()) &&
             ok;
    guard.finish();
    return ok ? 0 : 1;
}
