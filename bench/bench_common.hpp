/**
 * @file
 * Shared scaffolding for the bench drivers (reproduce, run_kernel,
 * bench_perf and the sweeps): workload selection, the recorded suite
 * runner, and the figure banner.
 */

#ifndef WARPCOMP_BENCH_BENCH_COMMON_HPP
#define WARPCOMP_BENCH_BENCH_COMMON_HPP

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "frontend/frontend.hpp"
#include "harness/experiment.hpp"
#include "harness/perf_json.hpp"
#include "harness/thread_pool.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/stats_json.hpp"
#include "power/report.hpp"

namespace warpcomp {
namespace bench {

/** Workload list honouring --kernel and --only (in that order). */
inline std::vector<std::string>
selectedWorkloads(const HarnessOptions &opt)
{
    if (!opt.kernelPath.empty())
        return {kernelFileSpec(opt.kernelPath, opt.kernelEntry)};
    if (opt.only.empty())
        return workloadNames();
    return {opt.only};
}

/**
 * Run the selected workloads under one config on the parallel runner
 * (--threads=N; 0 = hardware concurrency). Output is bit-identical to
 * the old serial loop — see runWorkloadsParallel.
 *
 * Every call is wall-clock timed; with --json=FILE the run is appended
 * to the process perf record flushed at exit (see PerfRecorder). @p
 * label names the suite in that record ("suite N" when omitted).
 *
 * Observability: --stats-json=FILE arms the StatsRecorder (every suite
 * is recorded, flushed at exit); --trace=FILE writes a Chrome trace of
 * the FIRST suite the process runs and requires --only so the file
 * holds exactly one workload's lanes; --trace-out=FILE streams the
 * FIRST suite's full event record to a binary dump for offline
 * analysis with `wc_trace` (same --only requirement, same optional
 * --trace START,END window). All three enable windowed counters at
 * the --trace-window interval.
 */
inline std::vector<ExperimentResult>
runSelected(const HarnessOptions &opt, ExperimentConfig cfg,
            std::string label = "")
{
    cfg.scale = opt.scale;
    cfg.numSms = opt.numSms;
    cfg.skipIdle = !opt.noSkip;
    if (opt.faults.enabled())
        cfg.faults = opt.faults;
    if (opt.seu.enabled())
        cfg.seu = opt.seu;
    if (opt.hangBudget > 0)
        cfg.faults.hangCycles = opt.hangBudget;
    if (!opt.jsonPath.empty())
        perfRecorder().setOutput(opt.benchName, opt.jsonPath);
    if (!opt.statsJsonPath.empty())
        statsRecorder().setOutput(opt.benchName, opt.statsJsonPath);

    static u32 suite_counter = 0;
    ++suite_counter;
    const std::string suite_label = label.empty()
        ? "suite " + std::to_string(suite_counter) : std::move(label);

    if (!opt.tracePath.empty() || !opt.statsJsonPath.empty() ||
        !opt.traceOutPath.empty())
        cfg.obs.windowInterval = opt.traceWindow;
    static bool trace_taken = false;
    const bool trace_this = !opt.tracePath.empty() && !trace_taken;
    if (trace_this) {
        trace_taken = true;
        if (opt.only.empty())
            WC_FATAL("--trace requires --only=WORKLOAD (one trace file "
                     "holds one workload's warp/bank lanes)");
        cfg.obs.trace = true;
        cfg.obs.traceStart = opt.traceStart;
        cfg.obs.traceEnd = opt.traceEnd;
    }
    static bool stream_taken = false;
    const bool stream_this = !opt.traceOutPath.empty() && !stream_taken;
    if (stream_this) {
        stream_taken = true;
        if (opt.only.empty())
            WC_FATAL("--trace-out requires --only=WORKLOAD (one dump "
                     "holds one workload's event record)");
        cfg.obs.streamPath = opt.traceOutPath;
        cfg.obs.streamLabel = suite_label;
        cfg.obs.traceStart = opt.traceStart;
        cfg.obs.traceEnd = opt.traceEnd;
    }

    const auto t0 = std::chrono::steady_clock::now();
    auto results =
        runWorkloadsParallel(selectedWorkloads(opt), cfg, opt.threads);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;

    if (trace_this && !results.empty() &&
        results.front().run.obs != nullptr) {
        ChromeTraceMeta meta;
        meta.workload = results.front().workload;
        meta.config = suite_label;
        meta.numSms = cfg.numSms;
        meta.numBanks = makeGpuParams(cfg).sm.regfile.numBanks;
        meta.cycles = results.front().run.cycles;
        std::ofstream os(opt.tracePath);
        if (!os)
            WC_FATAL("cannot write trace to '" << opt.tracePath << "'");
        writeChromeTrace(os, *results.front().run.obs, meta);
    }

    // Ring wrap-around loses the oldest events; that is invisible in
    // the trace file itself, so say it out loud and name the fix.
    if (opt.traceOutPath.empty()) {
        for (const ExperimentResult &r : results) {
            if (r.run.obs == nullptr)
                continue;
            const u64 dropped = r.run.obs->ring().dropped();
            if (dropped > 0)
                std::cerr << "warning: trace ring dropped " << dropped
                          << " events for '" << r.workload
                          << "' (oldest overwritten); stream the full "
                             "run with --trace-out=FILE\n";
        }
    }

    if (statsRecorder().enabled()) {
        StatsSuiteRecord rec;
        rec.label = suite_label;
        rec.numSms = cfg.numSms;
        rec.scale = cfg.scale;
        rec.seedSalt = cfg.seedSalt;
        for (const ExperimentResult &r : results)
            rec.rows.push_back({r.workload, r.run, r.frontend,
                                r.imageSha});
        statsRecorder().addSuite(std::move(rec));
    }

    if (perfRecorder().enabled()) {
        PerfSuiteRecord rec;
        rec.label = suite_label;
        rec.threads = opt.threads;
        rec.resolvedThreads = resolveThreadCount(opt.threads);
        rec.seedSalt = cfg.seedSalt;
        rec.faultBer = cfg.faults.ber;
        rec.faultPolicy = faultPolicyName(cfg.faults.policy);
        rec.faultSeed = cfg.faults.seed;
        rec.seuRate = cfg.seu.flipsPerCycle;
        rec.seuScheme = seuSchemeName(cfg.seu.scheme);
        rec.seuScrubInterval = cfg.seu.scrubInterval;
        rec.wallSeconds = wall.count();
        for (const ExperimentResult &r : results) {
            rec.totalCycles += r.run.cycles;
            rec.rows.push_back({r.workload, r.run.cycles, r.wallSeconds,
                                r.frontend, r.imageSha});
        }
        perfRecorder().addSuite(std::move(rec));
    }
    return results;
}

/** Standard figure banner. */
inline void
banner(const std::string &title, const std::string &paper_ref)
{
    std::cout << "== " << title << " ==\n"
              << "(reproduces " << paper_ref << " of Lee et al., "
              << "Warped-Compression, ISCA 2015)\n\n";
}

} // namespace bench
} // namespace warpcomp

#endif // WARPCOMP_BENCH_BENCH_COMMON_HPP
