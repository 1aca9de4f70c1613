/**
 * @file
 * Measurement helpers for the perfbench binary: host timers, a
 * flattened telemetry snapshot with deltas and digests, bucket-level
 * percentile estimation on the simulator's histogram layout, and an
 * in-memory span recorder for the traced run.
 *
 * Everything here reads the program from outside: public getters and
 * the `sys.telemetry` tree. Nothing is registered inside the
 * simulator.
 */

#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/telemetry.hh"

namespace perfbench {

namespace sim = optimus::sim;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Host-speed reference: a fixed, self-contained discrete-event loop
 * (a binary-heap agenda whose events touch random words of a 256 KB
 * table) that does the same kind of work as the simulator but runs
 * none of its code. Timed next to each measured repetition, it tracks
 * how fast the host is at that moment. Returns host seconds.
 */
double referenceSeconds();

/** About what referenceSeconds() takes on the 4-core host the bounds
 *  were set on; the unit the host metrics are normalized to. */
inline constexpr double kReferenceNominalS = 0.05;

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile of an exact sample set (0 when empty). */
double exactPercentile(std::vector<double> v, double p);

/**
 * Bucket counts in sim::Histogram's shared log-linear layout. Unlike
 * the histogram itself these can be subtracted (a measured window is
 * "end minus warm-up") and merged across ports, tenants and nodes.
 */
class Buckets
{
  public:
    void add(const sim::Histogram &h);
    void add(const Buckets &b);
    void subtract(const Buckets &b);
    std::uint64_t count() const;
    const std::vector<std::uint64_t> &counts() const { return _n; }

    /**
     * Value at percentile @p p in [0, 100], interpolated linearly
     * inside the bucket that holds the nearest-rank sample. The
     * histogram's own percentile() returns the bucket midpoint, which
     * reads identically whenever two runs land in one bucket;
     * interpolation keeps the estimate within the same bucket but
     * lets it move with the counts.
     */
    double percentile(double p) const;

  private:
    std::vector<std::uint64_t> _n;
};

/**
 * Every stat of a telemetry tree, flattened to "path.name" keys:
 * counters as their value, averages as ".n"/".sum", histograms as
 * bucket counts. Snapshots subtract (window deltas), sum over name
 * predicates, and digest for the determinism gate.
 */
class Snapshot
{
  public:
    /** Add every stat under @p root, keys prefixed by @p prefix. */
    void capture(const sim::TelemetryNode &root,
                 const std::string &prefix = "");

    /** This snapshot minus @p before, key by key. */
    Snapshot minus(const Snapshot &before) const;

    using Pred = std::function<bool(const std::string &)>;
    double sum(const Pred &match) const;
    Buckets hist(const Pred &match) const;
    /** Each matching histogram separately, keyed by name. */
    std::map<std::string, Buckets> hists(const Pred &match) const;

    /** FNV-1a over every key and value, in key order. */
    std::uint64_t digest() const;

  private:
    std::map<std::string, double> _values;
    std::map<std::string, Buckets> _hists;
};

/** Snapshot keys ending in @p suffix. */
Snapshot::Pred endsWith(const std::string &suffix);

/** Fold @p len bytes into the FNV-1a hash @p h. */
void fnv1a(std::uint64_t &h, const void *data, std::size_t len);

/**
 * In-memory span recorder for the traced run. A span names the layer
 * (module) whose public API the benchmark called; nesting is by
 * construction order. Written out once, when the run ends.
 */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        std::string layer;
        double start = 0; ///< seconds since the recorder began
        double end = 0;
        int parent = -1;
        int rep = 0; ///< repetition the span belongs to (its trace id)
    };

    Spans() : _t0(Clock::now()) {}

    void setRep(int rep) { _rep = rep; }
    int begin(const std::string &name, const std::string &layer);
    void end(int id);

    /** Self time per layer over repetition @p rep: each span's
     *  duration minus the part its direct children cover. */
    std::map<std::string, double> selfTime(int rep) const;
    /** Total duration per layer over @p rep. */
    std::map<std::string, double> totalTime(int rep) const;

    /** Chrome trace ("X" events, microseconds) of every span. */
    bool writeJson(const std::string &path) const;

  private:
    Clock::time_point _t0;
    std::vector<Span> _spans;
    std::vector<int> _open;
    int _rep = 0;
};

/** RAII span; inert when the recorder is null (untraced runs). */
class SpanScope
{
  public:
    SpanScope(Spans *s, const std::string &name,
              const std::string &layer)
        : _s(s), _id(s ? s->begin(name, layer) : -1)
    {
    }
    ~SpanScope()
    {
        if (_s)
            _s->end(_id);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Spans *_s;
    int _id;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
