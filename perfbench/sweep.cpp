/**
 * @file
 * `sweep` workload: the SEU grid (an SEU-free reference plus flip
 * rates x Unprotected/Ecc/EccScrub) over a few kernels runs through the
 * process-isolated supervisor with a journal; a second pass resumes the
 * same grid from that journal; then the reference points run again in
 * process through runGrid, to be compared with the isolated ones.
 *
 * The grid also holds a pair of points that differ only in their
 * EnergyParams. configToSpec leaves EnergyParams out, so both points
 * share one key and their child prices them with default constants:
 * they fail the check against in-process pricing under their own
 * constants and are counted as failed, in every round and at every
 * seed, until that is mended.
 */

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/json_parse.hpp"
#include "harness/experiment.hpp"
#include "perfbench.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

using namespace warpcomp;

namespace {

const std::vector<std::string> kSweepKernels = {"nw", "dwt2d", "hotspot",
                                                "gaussian"};
constexpr Cycle kHangBudget = 2'000'000;
/** Per-child watchdog: points take well under a second, and a run must
 *  end within minutes even if a child hangs. */
constexpr double kPointTimeoutSeconds = 30.0;

std::string
statsText(const PointStats &s)
{
    std::ostringstream os;
    JsonWriter w(os);
    writeJson(w, s);
    return os.str();
}

/** A counter from a --sweep-stats file (0 when unreadable). */
double
sweepCounter(const std::string &path, const char *name)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const JsonParseOutcome parsed = parseJson(ss.str());
    if (!parsed.value.has_value())
        return 0.0;
    const JsonValue *v = parsed.value->find(name);
    const auto n = v == nullptr ? std::nullopt : v->asU64();
    return n.has_value() ? static_cast<double>(*n) : 0.0;
}

} // namespace

Outcome
runSweep(Context &ctx)
{
    Outcome out;
    measureSetup(ctx, out, [&] {
        for (const std::string &k : kSweepKernels) {
            Scope s(ctx.tracer, "workloads.build");
            makeWorkload(k, 1, ctx.seed);
        }
    });

    ExperimentConfig reference;
    reference.seedSalt = ctx.seed;
    reference.faults.hangCycles = kHangBudget;
    std::vector<ExperimentConfig> configs = {reference};
    for (double rate : {1e-4, 1e-3}) {
        for (SeuScheme scheme : {SeuScheme::Unprotected, SeuScheme::Ecc,
                                 SeuScheme::EccScrub}) {
            ExperimentConfig c = reference;
            c.seu.flipsPerCycle = rate;
            c.seu.scheme = scheme;
            configs.push_back(c);
        }
    }
    std::vector<SweepPoint> points;
    for (const ExperimentConfig &c : configs)
        for (const std::string &k : kSweepKernels)
            points.push_back({k, c});

    // The energy-variant pair runs on canonical inputs (salt 0), so its
    // outcome does not depend on --seed.
    const std::size_t pair_at = points.size();
    ExperimentConfig cheap = reference, dear = reference;
    cheap.seedSalt = dear.seedSalt = 0;
    cheap.energy.bankAccessPj = 3.5;
    dear.energy.bankAccessPj = 14.0;
    points.push_back({"nw", cheap});
    points.push_back({"nw", dear});
    const ExperimentResult pair_run = runWorkload("nw", cheap);
    const double pair_pj[2] = {
        pair_run.run.meter.breakdownWith(cheap.energy).totalPj(),
        pair_run.run.meter.breakdownWith(dear.energy).totalPj()};
    if (pointKey(points[pair_at]) == pointKey(points[pair_at + 1]))
        std::cerr << "perfbench: the energy-variant points share key "
                  << pointKey(points[pair_at]) << '\n';

    const std::string dir = ctx.workDir + "/sweep";
    const std::string journal = dir + "/journal.jsonl";
    auto pass = [&](const char *span, SweepOptions opt,
                    std::string *report) {
        Scope s(ctx.tracer, span);
        std::vector<PointOutcome> outs =
            runResilientSweep(ctx.selfPath, points, opt, ctx.threads);
        std::ostringstream os;
        writeSweepReport(os, "perfbench", "seu", outs);
        *report = os.str();
        return outs;
    };

    runRounds(ctx, out, RoundThreads::All, [&] {
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
    }, [&](Round &r) {
        SweepOptions fresh_opt;
        fresh_opt.timeoutSeconds = kPointTimeoutSeconds;
        fresh_opt.journalPath = journal;
        fresh_opt.sweepStatsPath = dir + "/fresh-stats.json";
        SweepOptions resume_opt;
        resume_opt.timeoutSeconds = kPointTimeoutSeconds;
        resume_opt.resumePath = journal;
        resume_opt.sweepStatsPath = dir + "/resume-stats.json";

        std::string fresh_report, resume_report;
        const std::vector<PointOutcome> fresh =
            pass("sweep.fresh", fresh_opt, &fresh_report);
        r.counts["sweep.journal_bytes"] =
            static_cast<double>(fileBytes(journal));
        const std::vector<PointOutcome> resumed =
            pass("sweep.resume", resume_opt, &resume_report);
        std::vector<std::vector<ExperimentResult>> refs;
        {
            Scope s(ctx.tracer, "harness.grid");
            refs = runGrid({reference}, kSweepKernels, ctx.threads);
        }

        out.attempted += fresh.size() + resumed.size() + refs[0].size();
        out.check(fresh_report == resume_report,
                  "the resumed report is byte-identical to the fresh one");
        for (const PointOutcome &o : fresh)
            out.check(o.ok() && o.attempts == 1,
                      o.point.workload + " " + o.key +
                          ": point finishes in one attempt");
        for (const PointOutcome &o : resumed)
            out.check(o.ok(), o.point.workload + " " + o.key +
                                  ": resumed point is ok");
        for (std::size_t k = 0; k < refs[0].size(); ++k) {
            const ExperimentResult &res = refs[0][k];
            out.check(fresh[k].stats.has_value() &&
                          statsText(*fresh[k].stats) ==
                              statsText(makePointStats(res,
                                                       reference.energy)),
                      res.workload + ": SEU-free point equals an "
                                     "in-process runWorkload");
            addRunCounts(r, res.run);
            r.counts["harness.busy_s"] += res.wallSeconds;
            r.counts["sim.run_s"] += res.wallSeconds;
            r.counts["harness.points"] += 1;
            r.counts["rf_energy_pj"] += res.run.meter.breakdown().totalPj();
        }
        for (std::size_t i = 0; i < pair_at; ++i) {
            const PointOutcome &o = fresh[i];
            if (!o.stats.has_value())
                continue;
            if (o.point.cfg.seu.scheme != SeuScheme::Unprotected)
                out.check(o.stats->seu.corruptedReads == 0,
                          o.point.workload + " " + o.key +
                              ": Ecc/EccScrub point has no corrupted "
                              "reads");
            r.counts["fault.seu_flips"] +=
                static_cast<double>(o.stats->seu.flips);
            r.counts["fault.ecc_corrected"] +=
                static_cast<double>(o.stats->seu.eccCorrectedReads);
        }
        for (const std::vector<PointOutcome> *pass_outs : {&fresh, &resumed}) {
            for (std::size_t j = 0; j < 2; ++j) {
                const PointOutcome &o = (*pass_outs)[pair_at + j];
                const bool priced = o.stats.has_value() &&
                    std::abs(o.stats->energyPj - pair_pj[j]) <=
                        1e-9 * pair_pj[j];
                out.failed += priced ? 0 : 1;
            }
        }

        r.counts["points"] +=
            static_cast<double>(fresh.size() + resumed.size());
        for (const char *file : {"/fresh-stats.json", "/resume-stats.json"}) {
            r.counts["sweep.spawned"] += sweepCounter(dir + file, "spawned");
            r.counts["sweep.cache_hits"] +=
                sweepCounter(dir + file, "cache_hits");
        }
    });
    std::filesystem::remove_all(dir);
    return out;
}

} // namespace perfbench
