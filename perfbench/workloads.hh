/**
 * @file
 * The four benchmark workloads. Each repetition builds the system
 * through public constructors, programs generated inputs through the
 * guest API, runs a fixed amount of simulated work, checks every
 * output, and reads counts back from public getters and the telemetry
 * tree.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.hh"

namespace perfbench {

/** Live state of the repetition in flight, read by the hang guard. */
struct Progress
{
    std::atomic<std::uint64_t> tick{0};      ///< simulated time
    std::atomic<std::uint64_t> beats{0};     ///< set-up steps taken
    std::atomic<std::uint64_t> attempted{0}; ///< operations so far
    std::atomic<std::uint64_t> ok{0};        ///< completed correctly
};

/** What one repetition is asked to do. */
struct RepSpec
{
    std::uint64_t seed = 1;
    /** Spans recorder; non-null only in traced repetitions. */
    Spans *spans = nullptr;
    /** Traced repetitions attach a Chrome trace sink to every trace
     *  bus and write it to this path prefix when the run ends. */
    std::string tracePrefix;
    Progress *progress = nullptr;
};

/** What one repetition measured. */
struct RepResult
{
    double setupS = 0;  ///< host: construction + guest programming
    double runS = 0;    ///< host: the fixed simulated work
    double verifyS = 0; ///< host: output checks against references
    /** Simulated end-to-end metrics (deterministic per seed). */
    std::map<std::string, double> sim;
    /** Per-layer counts over the measured window (deterministic). */
    std::map<std::string, double> layer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::string why; ///< first correctness failure, if any
    /** Digest of every simulated metric and telemetry count. */
    std::uint64_t digest = 0;
};

using RepFn = RepResult (*)(const RepSpec &);

struct Workload
{
    const char *name;
    RepFn run;
    /** Reference kernels the traced run times: (app, bytes). */
    std::vector<std::pair<std::string, std::uint64_t>> (*refJobs)(
        std::uint64_t seed);
};

const std::vector<Workload> &workloads();

/**
 * Correctness self-test at short scale: one GRN job runs, its output
 * passes the gate, then one output word is corrupted in guest memory
 * and the gate must report the job as failed. Returns true when the
 * gate caught the corruption; @p report says what happened.
 */
bool selfTest(std::uint64_t seed, std::string &report);

/** MB/s of the software reference for @p app over @p bytes of input,
 *  timed by calling the public accel::algo functions directly. */
double refMbPerSec(const std::string &app, std::uint64_t bytes,
                   std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
