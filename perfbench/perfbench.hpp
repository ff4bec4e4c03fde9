/**
 * @file
 * Shared scaffolding of the perfbench driver: the span tracer, the
 * round loop, and the per-run outcome every workload fills in.
 *
 * Layers are timed from outside: each workload wraps its own calls into
 * the simulator's public functions in a Scope. With tracing off a Scope
 * costs one branch, so the untraced runs that give the end-to-end
 * numbers execute the same code as the traced run.
 */

#ifndef PERFBENCH_PERFBENCH_HPP
#define PERFBENCH_PERFBENCH_HPP

#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace warpcomp {
struct RunResult;
}

namespace perfbench {

using warpcomp::u32;
using warpcomp::u64;
using Clock = std::chrono::steady_clock;

/**
 * In-memory span recorder. Spans nest: each records the span that was
 * open when it began. Only the driver's main thread opens spans.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;
        double start = 0.0;     ///< seconds since the tracer was made
        double end = 0.0;
    };

    explicit Tracer(bool enabled);

    /** Open a span; returns its id, or -1 when tracing is off. */
    int open(const char *name);
    void close(int id);

    /**
     * One value per span named @p root: the summed duration of the
     * spans named @p name beneath it (at any depth).
     */
    std::vector<double> sumPerRoot(const std::string &root,
                                   const std::string &name) const;

    /** Per span named @p root: share of it its direct children cover. */
    std::vector<double> coveragePerRoot(const std::string &root) const;

    /** Write every span as one JSON object per line. */
    void writeJsonLines(const std::string &path) const;

  private:
    bool enabled_;
    Clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span around one call into the simulator. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name)
        : tracer_(tracer), id_(tracer.open(name))
    {
    }
    ~Scope() { tracer_.close(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &tracer_;
    int id_;
};

/**
 * While alive, moves the thread that made it to the next usable CPU
 * every few milliseconds, round robin, and adds up the time the
 * hypervisor steals from whichever CPU the thread is on. The host's
 * interference differs from core to core and drifts over minutes, so a
 * single-threaded round pinned wherever the scheduler left it measures
 * one core's luck; rotating spreads the round evenly over all cores, as
 * the multi-threaded workloads are spread by construction. Restores the
 * full CPU mask when it stops.
 */
class CpuRotation
{
  public:
    CpuRotation();
    ~CpuRotation();

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Stop rotating; returns the seconds stolen from the thread. */
    double finish();

  private:
    void loop();

    int tid_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    double stolen_ = 0.0;
    std::thread mover_;
};

/** Measurements of one timed round. `counts` holds per-round totals. */
struct Round
{
    /** Wall seconds, less the time the hypervisor stole. */
    double wall = 0.0;
    /** Process CPU seconds; the kernel already leaves steal out. */
    double cpu = 0.0;
    /** Wall seconds the hypervisor stole from the round. */
    double stolen = 0.0;
    std::map<std::string, double> counts;
};

/** Everything a workload run hands back to main(). */
struct Outcome
{
    bool correct = true;
    u64 attempted = 0;
    u64 failed = 0;
    /** Seconds of each set-up repetition. */
    std::vector<double> setup;
    /** Share of the set-up phase's time the hypervisor stole. */
    double setupStolenShare = 0.0;
    std::vector<Round> rounds;

    /** Record a correctness check; failures are reported on stderr. */
    void check(bool ok, const std::string &what);
};

/** What a workload needs from the command line. */
struct Context
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    /** Worker threads / child processes (the usable CPU count). */
    u32 threads = 1;
    /** Driver binary, re-executed by the sweep supervisor. */
    std::string selfPath;
    /** Scratch directory for dumps, reports and journals. */
    std::string workDir;
    Tracer tracer{false};
};

/**
 * Repeat @p body under "bench.setup" spans, for at least a second and
 * 15 repetitions, rotating over the CPUs; records each repetition and
 * the share of the phase that was stolen.
 */
void measureSetup(Context &ctx, Outcome &out,
                  const std::function<void()> &body);

/** How many CPUs a workload's rounds keep busy. */
enum class RoundThreads
{
    One,    ///< one thread, rotated over the CPUs by a CpuRotation
    All,    ///< a worker thread or child process on every usable CPU
};

/**
 * Run whole rounds until ctx.seconds have passed (at least one).
 * @p prepare runs untimed before each round; @p round is timed under a
 * "bench.round" span and fills the round's counts. The time the
 * hypervisor stole is taken out of each round's wall time: for
 * RoundThreads::One, what was stolen from the CPU the thread was on;
 * for RoundThreads::All, the mean over the usable CPUs of what was
 * stolen from each.
 */
void runRounds(Context &ctx, Outcome &out, RoundThreads threads,
               const std::function<void()> &prepare,
               const std::function<void(Round &)> &round);

/**
 * Add one in-process run's simulated counts to @p r: warp instructions
 * and cycles (sim.*), register writes (compress.*) and bank traffic
 * (regfile.*).
 */
void addRunCounts(Round &r, const warpcomp::RunResult &run);

double median(std::vector<double> values);

u64 fileBytes(const std::string &path);

Outcome runSuite(Context &ctx);
Outcome runFigures(Context &ctx);
Outcome runTrace(Context &ctx);
Outcome runSweep(Context &ctx);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HPP
