/**
 * @file
 * `figures` workload: the configurations the paper's figures, ablations
 * and comparators request, figure by figure and duplicates included
 * (about fifteen of them re-run the None baseline), each through one
 * runGrid call over a subset of the kernels, followed by that figure's
 * energy pricing and statistic reduction.
 *
 * Every statistic the figures read is reduced here, so this is the
 * workload on which collecting statistics only on request must change
 * nothing, and on which a memoized grid would save the repeats.
 */

#include <cmath>
#include <functional>

#include "harness/experiment.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace warpcomp;

namespace {

using Grid = std::vector<std::vector<ExperimentResult>>;

/**
 * Cheap kernels, so that a whole round of every figure stays near three
 * seconds on four cores. None of them injects dummy MOVs (mum and spmv
 * do, but either one would double the round, as it sets each small
 * grid's critical path), so Fig 11 reduces to zeros here; `suite` and
 * `trace` cover dummy MOVs.
 */
const std::vector<std::string> kFigureKernels = {
    "nw", "dwt2d", "hotspot", "gaussian", "srad", "stencil"};
constexpr u32 kNumBanks = 32;

/** Reduces one figure's grid; `values` collects every statistic. */
struct Reducer
{
    Tracer &tracer;
    Outcome &out;
    std::vector<double> &values;
    Round &round;

    void emit(double v) { values.push_back(v); }

    /** Total energy of every point under @p p: totals[config][kernel]. */
    std::vector<std::vector<double>>
    price(const Grid &g, const EnergyParams &p)
    {
        Scope s(tracer, "power.price");
        std::vector<std::vector<double>> e(g.size());
        for (std::size_t c = 0; c < g.size(); ++c)
            for (const ExperimentResult &r : g[c])
                e[c].push_back(r.run.meter.breakdownWith(p).totalPj());
        return e;
    }

    /** Per kernel: value(config c) / value(config 0). */
    void
    emitNormalized(const Grid &g,
                   const std::function<double(const ExperimentResult &)> &f)
    {
        for (std::size_t c = 1; c < g.size(); ++c)
            for (std::size_t k = 0; k < g[c].size(); ++k)
                emit(f(g[c][k]) / f(g[0][k]));
    }

    void
    emitNormalized(const std::vector<std::vector<double>> &e)
    {
        for (std::size_t c = 1; c < e.size(); ++c)
            for (std::size_t k = 0; k < e[c].size(); ++k)
                emit(e[c][k] / e[0][k]);
    }
};

struct Figure
{
    const char *name;
    std::vector<ExperimentConfig> configs;
    std::function<void(const Grid &, Reducer &)> reduce;
};

double
cycles(const ExperimentResult &r)
{
    return static_cast<double>(r.run.cycles);
}

std::vector<Figure>
figures(u64 seed)
{
    ExperimentConfig warped;
    warped.seedSalt = seed;
    auto with = [&](const std::function<void(ExperimentConfig &)> &edit) {
        ExperimentConfig c = warped;
        edit(c);
        return c;
    };
    const ExperimentConfig none = with(
        [](ExperimentConfig &c) { c.scheme = CompressionScheme::None; });
    auto scheme = [&](CompressionScheme s) {
        return with([s](ExperimentConfig &c) { c.scheme = s; });
    };
    auto byEnergy = [](const Grid &g, Reducer &rd) {
        rd.emitNormalized(rd.price(g, EnergyParams{}));
    };
    auto byCycles = [](const Grid &g, Reducer &rd) {
        Scope s(rd.tracer, "analysis.reduce");
        rd.emitNormalized(g, cycles);
    };
    auto byCyclesAndEnergy = [byCycles, byEnergy](const Grid &g,
                                                  Reducer &rd) {
        byCycles(g, rd);
        byEnergy(g, rd);
    };
    auto energyScaled =
        [](const std::function<void(EnergyParams &, double)> &set,
           std::vector<double> scales) {
            return [set, scales](const Grid &g, Reducer &rd) {
                for (double x : scales) {
                    EnergyParams p;
                    set(p, x);
                    rd.emitNormalized(rd.price(g, p));
                }
            };
        };

    std::vector<Figure> figs;
    figs.push_back({"fig02", {warped}, [](const Grid &g, Reducer &rd) {
        Scope s(rd.tracer, "analysis.reduce");
        for (const ExperimentResult &r : g[0]) {
            const SimilarityBins &bins = r.run.stats.simBins;
            for (Phase ph : {kNonDivergent, kDivergent}) {
                u64 sum = 0;
                for (u32 b = 0; b < kNumDistanceBins; ++b) {
                    const auto bin = static_cast<DistanceBin>(b);
                    sum += bins.count(ph, bin);
                    rd.emit(bins.fraction(ph, bin));
                }
                rd.out.check(sum == bins.total(ph),
                             r.workload + ": Fig 2 bins sum to their total");
            }
        }
    }});
    figs.push_back({"fig03", {warped}, [](const Grid &g, Reducer &rd) {
        Scope s(rd.tracer, "analysis.reduce");
        for (const ExperimentResult &r : g[0])
            rd.emit(static_cast<double>(r.run.stats.issuedDivergent) /
                    static_cast<double>(r.run.stats.issued));
    }});
    figs.push_back({"fig05",
                    {with([](ExperimentConfig &c) {
                        c.collectBdiBreakdown = true;
                    })},
                    [](const Grid &g, Reducer &rd) {
        Scope s(rd.tracer, "analysis.reduce");
        for (const ExperimentResult &r : g[0]) {
            u64 total = 0;
            for (u64 n : r.run.stats.bdiSelect)
                total += n;
            for (u64 n : r.run.stats.bdiSelect)
                rd.emit(total == 0 ? 0.0
                                   : static_cast<double>(n) /
                                         static_cast<double>(total));
        }
    }});
    figs.push_back({"fig08", {warped}, [](const Grid &g, Reducer &rd) {
        Scope s(rd.tracer, "analysis.reduce");
        for (const ExperimentResult &r : g[0]) {
            rd.emit(r.run.stats.ratio.ratio(kNonDivergent));
            rd.emit(r.run.stats.ratio.ratio(kDivergent));
            rd.emit(r.run.stats.ratio.overallRatio());
        }
    }});
    figs.push_back({"fig09", {none, warped}, [](const Grid &g, Reducer &rd) {
        const auto e = rd.price(g, EnergyParams{});
        Scope s(rd.tracer, "analysis.reduce");
        rd.emitNormalized(e);
        double none_sum = 0.0, warped_sum = 0.0;
        for (std::size_t k = 0; k < e[0].size(); ++k) {
            none_sum += e[0][k];
            warped_sum += e[1][k];
        }
        rd.round.counts["rf_energy_pj"] += warped_sum;
        rd.out.check(warped_sum < none_sum,
                     "suite-mean Warped register-file energy is below None");
    }});
    figs.push_back({"fig10", {warped}, [](const Grid &g, Reducer &rd) {
        Scope s(rd.tracer, "analysis.reduce");
        std::vector<double> avg(kNumBanks, 0.0);
        for (const ExperimentResult &r : g[0])
            for (u32 b = 0; b < kNumBanks && b < r.run.bankGatedFraction.size();
                 ++b)
                avg[b] += r.run.bankGatedFraction[b] /
                    static_cast<double>(g[0].size());
        for (double v : avg)
            rd.emit(v);
    }});
    figs.push_back({"fig11", {warped}, [](const Grid &g, Reducer &rd) {
        Scope s(rd.tracer, "analysis.reduce");
        for (const ExperimentResult &r : g[0])
            rd.emit(static_cast<double>(r.run.stats.dummyMovs) /
                    static_cast<double>(r.run.stats.issued));
    }});
    figs.push_back({"fig12", {warped}, [](const Grid &g, Reducer &rd) {
        Scope s(rd.tracer, "analysis.reduce");
        for (const ExperimentResult &r : g[0]) {
            rd.emit(r.run.stats.compressedFraction(kNonDivergent));
            rd.emit(r.run.stats.compressedFraction(kDivergent));
        }
    }});
    figs.push_back({"fig13", {none, warped}, byCycles});
    std::vector<ExperimentConfig> sched;
    for (SchedPolicy pol : {SchedPolicy::Gto, SchedPolicy::Lrr}) {
        for (const ExperimentConfig &base : {none, warped}) {
            ExperimentConfig c = base;
            c.sched = pol;
            sched.push_back(c);
        }
    }
    figs.push_back({"fig14", sched, [](const Grid &g, Reducer &rd) {
        Scope s(rd.tracer, "analysis.reduce");
        for (std::size_t c = 0; c + 1 < g.size(); c += 2)
            for (std::size_t k = 0; k < g[c].size(); ++k)
                rd.emit(cycles(g[c + 1][k]) / cycles(g[c][k]));
    }});
    figs.push_back({"fig15",
                    {warped, scheme(CompressionScheme::Fixed40),
                     scheme(CompressionScheme::Fixed41),
                     scheme(CompressionScheme::Fixed42)},
                    [](const Grid &g, Reducer &rd) {
        Scope s(rd.tracer, "analysis.reduce");
        for (std::size_t k = 0; k < g[0].size(); ++k) {
            const double w = g[0][k].run.stats.ratio.overallRatio();
            rd.emit(w);
            for (std::size_t c = 1; c < g.size(); ++c) {
                const double f = g[c][k].run.stats.ratio.overallRatio();
                rd.emit(f);
                rd.out.check(w >= f, g[0][k].workload +
                                 ": Fig 15 Warped ratio is at least each "
                                 "fixed <4,x> ratio");
            }
        }
    }});
    figs.push_back({"fig16",
                    {none, warped, scheme(CompressionScheme::Fixed40),
                     scheme(CompressionScheme::Fixed41),
                     scheme(CompressionScheme::Fixed42)},
                    byEnergy});
    figs.push_back({"fig17", {none, warped},
                    energyScaled([](EnergyParams &p,
                                    double x) { p.compDecompScale = x; },
                                 {1.0, 1.5, 2.0, 2.5})});
    figs.push_back({"fig18", {none, warped},
                    energyScaled([](EnergyParams &p,
                                    double x) { p.accessScale = x; },
                                 {1.0, 1.5, 2.0, 2.5})});
    figs.push_back({"fig19", {none, warped},
                    energyScaled([](EnergyParams &p,
                                    double x) { p.wireActivity = x; },
                                 {0.0, 0.25, 0.5, 0.75, 1.0})});
    std::vector<ExperimentConfig> clat = {none}, dlat = {none};
    for (u32 lat : {2u, 4u, 8u}) {
        clat.push_back(with([lat](ExperimentConfig &c) {
            c.compressLatency = lat;
        }));
        dlat.push_back(with([lat](ExperimentConfig &c) {
            c.decompressLatency = lat;
        }));
    }
    figs.push_back({"fig20", clat, byCycles});
    figs.push_back({"fig21", dlat, byCycles});
    figs.push_back({"ablation_divergence",
                    {none, warped, with([](ExperimentConfig &c) {
                         c.divPolicy = DivergencePolicy::MergeRecompress;
                     })},
                    byCyclesAndEnergy});
    figs.push_back({"ablation_gating",
                    {none, with([](ExperimentConfig &c) {
                         c.enableGating = false;
                     }),
                     warped},
                    byEnergy});
    std::vector<ExperimentConfig> units = {none};
    const std::pair<u32, u32> sizings[] = {
        {1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 8}};
    for (auto [comp, decomp] : sizings) {
        units.push_back(with([comp, decomp](ExperimentConfig &c) {
            c.numCompressors = comp;
            c.numDecompressors = decomp;
        }));
    }
    figs.push_back({"ablation_units", units, byCyclesAndEnergy});
    std::vector<ExperimentConfig> wake = {none};
    for (u32 w : {0u, 5u, 10u, 20u, 40u})
        wake.push_back(with([w](ExperimentConfig &c) {
            c.wakeupLatency = w;
        }));
    figs.push_back({"ablation_wakeup", wake, byCyclesAndEnergy});
    figs.push_back({"comparator_drowsy",
                    {none, with([](ExperimentConfig &c) {
                         c.scheme = CompressionScheme::None;
                         c.drowsy = true;
                     }),
                     warped, with([](ExperimentConfig &c) {
                         c.drowsy = true;
                     })},
                    [](const Grid &g, Reducer &rd) {
        Scope s(rd.tracer, "power.price");
        for (std::size_t c = 1; c < g.size(); ++c) {
            for (std::size_t k = 0; k < g[c].size(); ++k) {
                const EnergyBreakdown b = g[c][k].run.meter.breakdown();
                const EnergyBreakdown base = g[0][k].run.meter.breakdown();
                rd.emit(b.dynamicPj() / base.dynamicPj());
                rd.emit(b.leakagePj() / base.leakagePj());
                rd.emit(b.totalPj() / base.totalPj());
            }
        }
    }});
    figs.push_back({"comparator_rfc",
                    {none, with([](ExperimentConfig &c) {
                         c.scheme = CompressionScheme::None;
                         c.rfcEntries = 6;
                     }),
                     warped, with([](ExperimentConfig &c) {
                         c.rfcEntries = 6;
                     })},
                    [](const Grid &g, Reducer &rd) {
        {
            Scope s(rd.tracer, "analysis.reduce");
            for (std::size_t c = 1; c < g.size(); ++c) {
                u64 acc = 0, base = 0, hits = 0, misses = 0;
                for (std::size_t k = 0; k < g[c].size(); ++k) {
                    acc += g[c][k].run.meter.bankAccesses();
                    base += g[0][k].run.meter.bankAccesses();
                    hits += g[c][k].run.rfcHits;
                    misses += g[c][k].run.rfcMisses;
                }
                rd.emit(static_cast<double>(acc) /
                        static_cast<double>(base));
                rd.emit(hits + misses == 0
                            ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses));
            }
        }
        rd.emitNormalized(rd.price(g, EnergyParams{}));
    }});
    return figs;
}

/** Checks every figure's points must pass, whatever the figure reads. */
void
checkPoints(const Figure &fig, const Grid &g, Reducer &rd)
{
    Scope s(rd.tracer, "power.price");
    for (std::size_t c = 0; c < g.size(); ++c) {
        for (const ExperimentResult &r : g[c]) {
            const std::string at =
                std::string(fig.name) + " " + r.workload + ": ";
            const EnergyBreakdown a = r.run.meter.breakdown();
            const EnergyBreakdown b =
                r.run.meter.breakdownWith(EnergyParams{});
            rd.out.check(a.bankDynamicPj == b.bankDynamicPj &&
                             a.wireDynamicPj == b.wireDynamicPj &&
                             a.compressionPj == b.compressionPj &&
                             a.decompressionPj == b.decompressionPj &&
                             a.bankLeakagePj == b.bankLeakagePj &&
                             a.unitLeakagePj == b.unitLeakagePj &&
                             a.totalPj() == b.totalPj(),
                         at + "breakdownWith(defaults) equals breakdown()");
            for (double f : r.run.bankGatedFraction)
                rd.out.check(f >= 0.0 && f <= 1.0,
                             at + "bank-gated fraction lies in [0, 1]");
            if (fig.configs[c].scheme == CompressionScheme::None)
                rd.out.check(r.run.stats.writesStoredCompressed == 0 &&
                                 r.run.meter.compActivations() == 0 &&
                                 r.run.meter.decompActivations() == 0 &&
                                 r.run.stats.dummyMovs == 0,
                             at + "None has no compressed writes, codec "
                                  "activations or dummy MOVs");
        }
    }
}

} // namespace

Outcome
runFigures(Context &ctx)
{
    Outcome out;
    measureSetup(ctx, out, [&] {
        for (const std::string &k : kFigureKernels) {
            Scope s(ctx.tracer, "workloads.build");
            makeWorkload(k, 1, ctx.seed);
        }
    });

    const std::vector<Figure> figs = figures(ctx.seed);
    std::vector<double> values;
    runRounds(ctx, out, RoundThreads::All, [] {}, [&](Round &r) {
        values.clear();
        for (const Figure &fig : figs) {
            Grid g;
            {
                Scope s(ctx.tracer, "harness.grid");
                g = runGrid(fig.configs, kFigureKernels, ctx.threads);
            }
            Reducer rd{ctx.tracer, out, values, r};
            fig.reduce(g, rd);
            checkPoints(fig, g, rd);
            for (const auto &row : g) {
                for (const ExperimentResult &res : row) {
                    addRunCounts(r, res.run);
                    r.counts["harness.busy_s"] += res.wallSeconds;
                    r.counts["sim.run_s"] += res.wallSeconds;
                }
            }
            const double points = static_cast<double>(
                fig.configs.size() * kFigureKernels.size());
            r.counts["points"] += points;
            r.counts["harness.points"] += points;
            out.attempted += fig.configs.size() * kFigureKernels.size();
        }
    });
    for (double v : values)
        out.check(std::isfinite(v), "every figure statistic is finite");
    return out;
}

} // namespace perfbench
