/**
 * @file
 * The paper's Table 1 and Figs 2-21, the Sec. 5 ablations and the
 * Sec. 7 comparators, from one table.
 *
 *   reproduce NAME... [harness flags]     e.g. reproduce fig09 fig13
 *   reproduce all     [harness flags]
 *
 * Each entry lists the configs it needs and a printer for their rows.
 * Entries run in the order named; a config is keyed by configToSpec
 * and simulated once per process (bench::runSelected), so `all` runs
 * the shared baselines once instead of once per figure. Every printer
 * gets its rows in its own config order, and `reproduce NAME` prints
 * exactly what that figure printed as a standalone binary.
 */

#include <cstdlib>
#include <cstring>
#include <map>

#include "bench_common.hpp"

#include "compress/bdi.hpp"
#include "sweep/point.hpp"

using namespace warpcomp;

namespace {

using Suite = std::vector<ExperimentResult>;

/** One entry's inputs: the selected workload names, and one suite of
 *  results per config of the entry, in its config order. */
struct Rows
{
    const std::vector<std::string> &names;
    std::vector<const Suite *> suites;

    const Suite &operator[](std::size_t c) const { return *suites[c]; }
};

struct Figure
{
    const char *name;
    const char *title;
    const char *paperRef;
    std::vector<ExperimentConfig> configs;
    void (*print)(const Rows &rows);
};

/** Total register-file energy of one run under given constants. */
double
totalEnergy(const ExperimentResult &r, const EnergyParams &params)
{
    return r.run.meter.breakdownWith(params).totalPj();
}

double
totalPj(const ExperimentResult &r)
{
    return r.run.meter.breakdown().totalPj();
}

/** Workload labels as the results name them (a --kernel image by its
 *  kernel name, where Rows::names holds the file spec). */
std::vector<std::string>
workloadsOf(const Suite &results)
{
    std::vector<std::string> out;
    for (const ExperimentResult &r : results)
        out.push_back(r.workload);
    return out;
}

/**
 * The common layout: one row per label, column c of row i holding
 * value(c, i), then the average row, all at @p precision decimals.
 * Returns the column means.
 */
template <typename Value>
std::vector<double>
printColumns(const std::vector<std::string> &labels,
             std::vector<std::string> headers, int precision, Value value)
{
    const std::size_t cols = headers.size() - 1;
    TextTable t(std::move(headers));
    std::vector<double> col_means(cols, 0.0);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        std::vector<double> row;
        for (std::size_t c = 0; c < cols; ++c) {
            row.push_back(value(c, i));
            col_means[c] += row.back();
        }
        t.addRow(labels[i], row, precision);
    }
    for (double &m : col_means)
        m /= static_cast<double>(labels.size());
    t.addRow("average", col_means, precision);
    t.print(std::cout);
    return col_means;
}

/** Default config (warped-compression) with @p edit applied. */
template <typename Edit>
ExperimentConfig
warped(Edit edit)
{
    ExperimentConfig cfg;
    edit(cfg);
    return cfg;
}

ExperimentConfig
warped()
{
    return ExperimentConfig{};
}

ExperimentConfig
baseline()
{
    return warped([](ExperimentConfig &c) {
        c.scheme = CompressionScheme::None;
    });
}

ExperimentConfig
withScheme(CompressionScheme s)
{
    return warped([s](ExperimentConfig &c) { c.scheme = s; });
}

/** Table 1: possible <base,delta> chunk-size combinations, their
 *  compressed sizes per Eq. (1), the banks each needs, and whether
 *  warped-compression uses them. Computed from the codec, not
 *  hard-coded, so any formula regression shows up here. */
void
printTable1(const Rows &)
{
    struct Row
    {
        BdiParams p;
        bool used;
    };
    const Row rows[] = {
        {{1, 0}, false}, {{2, 1}, false}, {{4, 0}, true},
        {{4, 1}, true},  {{4, 2}, true},  {{8, 0}, false},
        {{8, 1}, false}, {{8, 2}, false}, {{8, 4}, false},
    };

    TextTable t({"base(B)", "delta(B)", "comp.size(B)", "banks(16B)",
                 "used?"});
    for (const Row &r : rows) {
        const u32 size = bdiCompressedSize(r.p);
        t.addRow({std::to_string(r.p.baseBytes),
                  std::to_string(r.p.deltaBytes), std::to_string(size),
                  std::to_string(banksForBytes(size)),
                  r.used ? "Y" : "N"});
    }
    t.print(std::cout);

    std::cout << "\npaper: <4,0>/<4,1>/<4,2> selected as the three fixed"
                 " choices (Sec. 4).\n";
}

/** Fig 2: every write's successive-lane arithmetic distances binned
 *  into zero / 128 / 32K / random, split into non-divergent and
 *  divergent phases. */
void
printFig02(const Rows &rows)
{
    const Suite &results = rows[0];
    printColumns(workloadsOf(results),
                 {"bench", "nd.zero", "nd.128", "nd.32K", "nd.rand",
                  "d.zero", "d.128", "d.32K", "d.rand"},
                 3, [&](std::size_t c, std::size_t i) {
                     return results[i].run.stats.simBins.fraction(
                         c < kNumDistanceBins ? kNonDivergent
                                              : kDivergent,
                         static_cast<DistanceBin>(c % kNumDistanceBins));
                 });

    double nd_not_random_sum = 0.0;
    for (const auto &r : results)
        nd_not_random_sum += 1.0 - r.run.stats.simBins.fraction(
            kNonDivergent, DistanceBin::Random);
    std::cout << "\nnon-random fraction during non-divergent execution: "
              << fmtPercent(nd_not_random_sum / results.size())
              << "  (paper: ~79%)\n";
}

/** Fig 3: ratio of non-divergent warp instructions per benchmark. */
void
printFig03(const Rows &rows)
{
    TextTable t({"bench", "non-divergent", "divergent"});
    std::vector<double> nd;
    for (const auto &r : rows[0]) {
        const double div = static_cast<double>(
            r.run.stats.issuedDivergent) /
            static_cast<double>(r.run.stats.issued);
        nd.push_back(1.0 - div);
        t.addRow(r.workload, {1.0 - div, div}, 3);
    }
    t.addRow("average", {mean(nd), 1.0 - mean(nd)}, 3);
    t.print(std::cout);

    std::cout << "\naverage non-divergent ratio: " << fmtPercent(mean(nd))
              << "  (paper: 79%)\n";
}

/** Fig 5: the <base,delta> pair the original-BDI explorer would pick
 *  for each register write (fraction of total writes). Motivates
 *  dropping the 8-byte bases from the hardware. */
void
printFig05(const Rows &rows)
{
    const Suite &results = rows[0];
    const auto cands = fullBdiCandidates();
    std::vector<std::string> headers = {"bench"};
    for (const BdiParams &p : cands) {
        headers.push_back("<" + std::to_string(p.baseBytes) + "," +
                          std::to_string(p.deltaBytes) + ">");
    }
    headers.push_back("uncomp");

    const auto frac = [&](std::size_t c, std::size_t i) {
        const auto &select = results[i].run.stats.bdiSelect;
        u64 total = 0;
        for (u32 k = 0; k < 8; ++k)
            total += select[k];
        return total == 0 ? 0.0
            : static_cast<double>(select[c]) / static_cast<double>(total);
    };
    printColumns(workloadsOf(results), std::move(headers), 3, frac);

    double eight_byte_sum = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i)
        for (std::size_t c = 0; c < cands.size(); ++c)
            if (cands[c].baseBytes == 8)
                eight_byte_sum += frac(c, i);
    std::cout << "\n8-byte-base selections (average): "
              << fmtPercent(eight_byte_sum / results.size())
              << "  (paper: rarely selected -> <4,Y> only in hardware)\n";
}

/** Fig 8: compression ratio in divergent vs non-divergent regions,
 *  with the decompress-update-recompress assumption the paper uses
 *  for divergent writes. */
void
printFig08(const Rows &rows)
{
    TextTable t({"bench", "non-divergent", "divergent"});
    std::vector<double> nd, d;
    for (const auto &r : rows[0]) {
        const double rn = r.run.stats.ratio.ratio(kNonDivergent);
        const double rd = r.run.stats.ratio.writes(kDivergent) > 0
            ? r.run.stats.ratio.ratio(kDivergent) : 1.0;
        nd.push_back(rn);
        if (r.run.stats.ratio.writes(kDivergent) > 0)
            d.push_back(rd);
        std::vector<std::string> row = {r.workload, fmtDouble(rn, 2),
            r.run.stats.ratio.writes(kDivergent) > 0 ? fmtDouble(rd, 2)
                                                     : "N/A"};
        t.addRow(row);
    }
    t.addRow("average", {mean(nd), mean(d)}, 2);
    t.print(std::cout);

    std::cout << "\naverage ratio non-divergent " << fmtDouble(mean(nd), 2)
              << " vs divergent " << fmtDouble(mean(d), 2)
              << "  (paper: 2.5 vs 1.3)\n";
}

/** Fig 9: total register-file energy broken into dynamic / leakage /
 *  compression / decompression, normalized to the baseline. */
void
printFig09(const Rows &rows)
{
    const Suite &base = rows[0];
    const Suite &wc = rows[1];
    const auto col_means = printColumns(
        workloadsOf(base),
        {"bench", "base.dyn", "base.leak", "wc.dyn", "wc.leak", "wc.comp",
         "wc.decomp", "wc.total"},
        3, [&](std::size_t c, std::size_t i) {
            const EnergyBreakdown eb = base[i].run.meter.breakdown();
            const EnergyBreakdown ew = wc[i].run.meter.breakdown();
            const double parts[] = {
                eb.dynamicPj(), eb.leakagePj(), ew.dynamicPj(),
                ew.leakagePj(), ew.compressionPj, ew.decompressionPj,
                ew.totalPj()};
            return parts[c] / eb.totalPj();
        });

    std::vector<double> dyn_savings, leak_savings;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const EnergyBreakdown eb = base[i].run.meter.breakdown();
        const EnergyBreakdown ew = wc[i].run.meter.breakdown();
        dyn_savings.push_back(1.0 - ew.dynamicPj() / eb.dynamicPj());
        leak_savings.push_back(1.0 - ew.leakagePj() / eb.leakagePj());
    }
    std::cout << "\naverage register-file energy reduction: "
              << fmtPercent(1.0 - col_means[6])
              << "  (paper: 25%)\n"
              << "average dynamic energy reduction: "
              << fmtPercent(mean(dyn_savings)) << "  (paper: 35%)\n"
              << "average leakage energy reduction: "
              << fmtPercent(mean(leak_savings)) << "  (paper: 10%)\n";
}

/** Fig 10: fraction of cycles each of the 32 banks spends power-gated,
 *  averaged over the suite. Compressed data packs from the lowest bank
 *  of each 8-bank cluster, so gated time rises with the bank index. */
void
printFig10(const Rows &rows)
{
    const Suite &results = rows[0];
    const u32 num_banks = 32;
    std::vector<double> avg(num_banks, 0.0);
    for (const auto &r : results) {
        for (u32 b = 0; b < num_banks; ++b)
            avg[b] += r.run.bankGatedFraction[b];
    }
    for (double &v : avg)
        v /= static_cast<double>(results.size());

    TextTable t({"bank", "gated-cycle fraction"});
    for (u32 b = 0; b < num_banks; ++b)
        t.addRow({std::to_string(b), fmtPercent(avg[b])});
    t.print(std::cout);

    // The Fig 10 shape check: within each cluster the last bank gates
    // at least as often as the first.
    std::cout << "\ncluster summary (first bank -> last bank):\n";
    for (u32 c = 0; c < 4; ++c) {
        std::cout << "  cluster " << c << ": "
                  << fmtPercent(avg[c * 8]) << " -> "
                  << fmtPercent(avg[c * 8 + 7]) << '\n';
    }
    std::cout << "(paper: gated fraction increases toward higher banks "
                 "in each 8-bank cluster; baseline has zero gating)\n";
}

/** Fig 11: dummy MOVs as a fraction of issued instructions. */
void
printFig11(const Rows &rows)
{
    TextTable t({"bench", "MOV fraction"});
    std::vector<double> fracs;
    for (const auto &r : rows[0]) {
        const double f = static_cast<double>(r.run.stats.dummyMovs) /
            static_cast<double>(r.run.stats.issued);
        fracs.push_back(f);
        t.addRow({r.workload, fmtPercent(f, 2)});
    }
    t.addRow({"average", fmtPercent(mean(fracs), 2)});
    t.print(std::cout);

    std::cout << "\naverage dummy-MOV fraction: "
              << fmtPercent(mean(fracs), 2) << "  (paper: < 2%)\n";
}

/** Fig 12: share of compressed registers, divergent vs not. */
void
printFig12(const Rows &rows)
{
    TextTable t({"bench", "non-divergent", "divergent"});
    std::vector<double> nd, d;
    for (const auto &r : rows[0]) {
        const double fn = r.run.stats.compressedFraction(kNonDivergent);
        const bool has_div =
            r.run.stats.compressedFracSamples[kDivergent] > 0;
        nd.push_back(fn);
        std::vector<std::string> row = {r.workload, fmtPercent(fn)};
        if (has_div) {
            const double fd = r.run.stats.compressedFraction(kDivergent);
            d.push_back(fd);
            row.push_back(fmtPercent(fd));
        } else {
            row.push_back("N/A");
        }
        t.addRow(row);
    }
    t.addRow({"average", fmtPercent(mean(nd)), fmtPercent(mean(d))});
    t.print(std::cout);

    std::cout << "\n(paper: compressed share stays similar across phases "
                 "for most benchmarks; BFS/dwt2d/spmv drop >10% during "
                 "divergence)\n";
}

/** Fig 13: execution time normalized to the baseline. */
void
printFig13(const Rows &rows)
{
    const Suite &base = rows[0];
    const Suite &wc = rows[1];
    TextTable t({"bench", "base cycles", "wc cycles", "normalized"});
    std::vector<double> norms;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const double n = static_cast<double>(wc[i].run.cycles) /
            static_cast<double>(base[i].run.cycles);
        norms.push_back(n);
        t.addRow({base[i].workload,
                  std::to_string(base[i].run.cycles),
                  std::to_string(wc[i].run.cycles), fmtDouble(n, 3)});
    }
    t.addRow({"average", "", "", fmtDouble(mean(norms), 3)});
    t.print(std::cout);

    std::cout << "\naverage execution-time overhead: "
              << fmtPercent(mean(norms) - 1.0)
              << "  (paper: 0.1%)\n";
}

/** Fig 14: normalized energy under the GTO and LRR schedulers
 *  (configs: GTO base, GTO wc, LRR base, LRR wc). */
void
printFig14(const Rows &rows)
{
    const auto col_means = printColumns(
        rows.names, {"bench", "GTO", "LRR"}, 3,
        [&](std::size_t c, std::size_t i) {
            return totalPj(rows[2 * c + 1][i]) / totalPj(rows[2 * c][i]);
        });
    std::cout << "\naverage energy reduction: GTO "
              << fmtPercent(1.0 - col_means[0]) << ", LRR "
              << fmtPercent(1.0 - col_means[1])
              << "  (paper: 25% GTO, 26% LRR)\n";
}

/** Fig 15: compression ratio of the dynamic choice against each single
 *  fixed parameter (configs: warped, <4,0>, <4,1>, <4,2>). */
void
printFig15(const Rows &rows)
{
    const auto col_means = printColumns(
        rows.names, {"bench", "warped", "<4,0>", "<4,1>", "<4,2>"}, 2,
        [&](std::size_t c, std::size_t i) {
            return rows[c][i].run.stats.ratio.overallRatio();
        });
    std::cout << "\n<4,0>-only ratio vs dynamic selection: "
              << fmtPercent(1.0 - col_means[1] / col_means[0])
              << " lower  (paper: ~30% lower; <4,0> alone equals the "
                 "scalarization approach)\n";
}

/** Fig 16: energy of each single fixed parameter, normalized to the
 *  baseline (configs: baseline, warped, <4,0>, <4,1>, <4,2>). */
void
printFig16(const Rows &rows)
{
    printColumns(rows.names, {"bench", "warped", "<4,0>", "<4,1>", "<4,2>"},
                 3, [&](std::size_t c, std::size_t i) {
                     return totalPj(rows[c + 1][i]) / totalPj(rows[0][i]);
                 });
    std::cout << "\n(paper: the dynamic scheme consumes the least energy; "
                 "<4,0>-only loses part of the dynamic-energy savings)\n";
}

/**
 * Figs 17 and 18: normalized energy with one EnergyParams scale set to
 * 1.0/1.5/2.0/2.5x. @p baseline_scaled prices the baseline under the
 * same constants; Fig 17 leaves it fixed, since the baseline has no
 * comp/decomp units. Returns the column means.
 */
std::vector<double>
printScaled(const Rows &rows, double EnergyParams::*scale,
            bool baseline_scaled)
{
    const Suite &base = rows[0];
    const Suite &wc = rows[1];
    const double scales[] = {1.0, 1.5, 2.0, 2.5};
    return printColumns(
        workloadsOf(base), {"bench", "1.0x", "1.5x", "2.0x", "2.5x"}, 3,
        [&](std::size_t c, std::size_t i) {
            EnergyParams p;
            p.*scale = scales[c];
            const double bt = baseline_scaled ? totalEnergy(base[i], p)
                                              : totalPj(base[i]);
            return totalEnergy(wc[i], p) / bt;
        });
}

/** Fig 17: energy vs comp/decomp activation energy. */
void
printFig17(const Rows &rows)
{
    const auto col_means =
        printScaled(rows, &EnergyParams::compDecompScale, false);
    std::cout << "\nworst case (2.5x) still saves "
              << fmtPercent(1.0 - col_means[3])
              << "  (paper: 14% at 2.5x vs 25% at 1.0x)\n";
}

/** Fig 18: energy vs per-bank access energy. */
void
printFig18(const Rows &rows)
{
    const auto col_means =
        printScaled(rows, &EnergyParams::accessScale, true);
    std::cout << "\nat 2.5x access energy, savings grow to "
              << fmtPercent(1.0 - col_means[3])
              << "  (paper: 35% under the optimistic assumption)\n";
}

/** Fig 19: energy vs wire activity 0..100%. */
void
printFig19(const Rows &rows)
{
    const Suite &base = rows[0];
    const Suite &wc = rows[1];
    TextTable t({"wire activity", "baseline", "warped-compression",
                 "savings"});
    for (double act : {0.0, 0.25, 0.5, 0.75, 1.0}) {
        EnergyParams p;
        p.wireActivity = act;
        double bsum = 0.0, wsum = 0.0;
        for (std::size_t i = 0; i < base.size(); ++i) {
            const double bt = totalEnergy(base[i], p);
            bsum += 1.0;
            wsum += totalEnergy(wc[i], p) / bt;
        }
        const double norm = wsum / bsum;
        t.addRow({fmtPercent(act, 0), "1.000", fmtDouble(norm, 3),
                  fmtPercent(1.0 - norm)});
    }
    t.print(std::cout);

    std::cout << "\n(paper: savings grow with wire activity, reaching "
                 "31% at 100%)\n";
}

constexpr u32 kLatencies[] = {2, 4, 8};

/** Figs 20 and 21: cycles normalized to the baseline for each of
 *  kLatencies (configs: baseline, one per latency); returns the column
 *  means. */
std::vector<double>
printLatency(const Rows &rows)
{
    return printColumns(
        rows.names, {"bench", "lat=2", "lat=4", "lat=8"}, 3,
        [&](std::size_t c, std::size_t i) {
            return static_cast<double>(rows[c + 1][i].run.cycles) /
                   static_cast<double>(rows[0][i].run.cycles);
        });
}

void
printFig20(const Rows &rows)
{
    const auto col_means = printLatency(rows);
    std::cout << "\naverage slowdown at 8-cycle compression latency: "
              << fmtPercent(col_means[2] - 1.0)
              << "  (paper: longer latencies cost up to ~14% with both "
                 "latencies at 8)\n";
}

void
printFig21(const Rows &rows)
{
    const auto col_means = printLatency(rows);
    std::cout << "\naverage slowdown at 8-cycle decompression latency: "
              << fmtPercent(col_means[2] - 1.0) << '\n';
}

/** Sec. 5.2: the shipped write-uncompressed + dummy-MOV policy against
 *  the rejected merge buffer, which reads, merges and recompresses
 *  divergent writes (configs: baseline, shipped, merge). */
void
printAblationDivergence(const Rows &rows)
{
    const Suite &base = rows[0];
    const Suite &unc = rows[1];
    const Suite &merge = rows[2];
    TextTable t({"bench", "unc.energy", "merge.energy", "unc.cycles",
                 "merge.cycles", "unc.movs", "merge.movs"});
    std::vector<double> eu, em, cu, cm;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const double bt = totalPj(base[i]);
        const double bc = static_cast<double>(base[i].run.cycles);
        eu.push_back(totalPj(unc[i]) / bt);
        em.push_back(totalPj(merge[i]) / bt);
        cu.push_back(unc[i].run.cycles / bc);
        cm.push_back(merge[i].run.cycles / bc);
        t.addRow({base[i].workload, fmtDouble(eu.back(), 3),
                  fmtDouble(em.back(), 3), fmtDouble(cu.back(), 3),
                  fmtDouble(cm.back(), 3),
                  std::to_string(unc[i].run.stats.dummyMovs),
                  std::to_string(merge[i].run.stats.dummyMovs)});
    }
    t.addRow({"average", fmtDouble(mean(eu), 3), fmtDouble(mean(em), 3),
              fmtDouble(mean(cu), 3), fmtDouble(mean(cm), 3), "", ""});
    t.print(std::cout);

    std::cout << "\nmerge-recompress removes every dummy MOV and keeps "
                 "divergent registers compressed;\nthe energy delta ("
              << fmtPercent(mean(eu) - mean(em))
              << " of baseline) is what the paper's rejected buffer "
                 "design would recover.\n";
}

/** Sec. 5.3: bank-access reduction (dynamic) against bank power gating
 *  (leakage) (configs: baseline, no gating, full). */
void
printAblationGating(const Rows &rows)
{
    const Suite &base = rows[0];
    TextTable t({"bench", "wc-no-gating", "wc-full", "gating share"});
    std::vector<double> ng, fl;
    for (std::size_t i = 0; i < base.size(); ++i) {
        const double bt = totalPj(base[i]);
        const double a = totalPj(rows[1][i]) / bt;
        const double b = totalPj(rows[2][i]) / bt;
        ng.push_back(a);
        fl.push_back(b);
        t.addRow({base[i].workload, fmtDouble(a, 3), fmtDouble(b, 3),
                  fmtPercent(a - b)});
    }
    t.addRow({"average", fmtDouble(mean(ng), 3), fmtDouble(mean(fl), 3),
              fmtPercent(mean(ng) - mean(fl))});
    t.print(std::cout);

    std::cout << "\ncompression alone saves "
              << fmtPercent(1.0 - mean(ng))
              << "; adding bank gating brings the total to "
              << fmtPercent(1.0 - mean(fl)) << ".\n";
}

/** Mean over the suite of wc cycles and energy against the baseline. */
std::pair<double, double>
meanCyclesEnergy(const Suite &base, const Suite &wc)
{
    std::vector<double> cyc, en;
    for (std::size_t i = 0; i < base.size(); ++i) {
        cyc.push_back(static_cast<double>(wc[i].run.cycles) /
                      static_cast<double>(base[i].run.cycles));
        en.push_back(totalPj(wc[i]) / totalPj(base[i]));
    }
    return {mean(cyc), mean(en)};
}

constexpr u32 kWakeups[] = {0, 5, 10, 20, 40};

/** Table 2's 10-cycle wakeup: slower wakeups stall first-touch writes
 *  but change nothing else (configs: baseline, one per kWakeups). */
void
printAblationWakeup(const Rows &rows)
{
    TextTable t({"wakeup (cycles)", "cycles vs baseline",
                 "energy vs baseline"});
    for (std::size_t w = 0; w < std::size(kWakeups); ++w) {
        const auto [cyc, en] = meanCyclesEnergy(rows[0], rows[w + 1]);
        t.addRow({std::to_string(kWakeups[w]), fmtDouble(cyc, 3),
                  fmtDouble(en, 3)});
    }
    t.print(std::cout);

    std::cout << "\n(first-touch wakeup stalls are the dominant source "
                 "of the technique's small performance cost)\n";
}

struct Sizing
{
    u32 comp;
    u32 decomp;
};
constexpr Sizing kSizings[] = {{1, 1}, {1, 2}, {2, 2}, {2, 4}, {4, 8}};

/** Sec. 5.1: 2 compressors + 4 decompressors for a dual-issue SM,
 *  against smaller and larger pools (configs: baseline, one per
 *  kSizings). */
void
printAblationUnits(const Rows &rows)
{
    TextTable t({"compressors", "decompressors", "cycles vs baseline",
                 "energy vs baseline"});
    for (std::size_t s = 0; s < std::size(kSizings); ++s) {
        const auto [cyc, en] = meanCyclesEnergy(rows[0], rows[s + 1]);
        t.addRow({std::to_string(kSizings[s].comp),
                  std::to_string(kSizings[s].decomp), fmtDouble(cyc, 3),
                  fmtDouble(en, 3)});
    }
    t.print(std::cout);

    std::cout << "\n(paper: 2 compressors + 4 decompressors suffice for "
                 "two warp instructions per cycle)\n";
}

struct DrowsyConfig
{
    const char *name;
    CompressionScheme scheme;
    bool drowsy;
};
constexpr DrowsyConfig kDrowsyConfigs[] = {
    {"baseline+drowsy", CompressionScheme::None, true},
    {"warped-compression", CompressionScheme::Warped, false},
    {"wc+drowsy", CompressionScheme::Warped, true},
};

/** Related work [9] (drowsy RF, HPCA'13): banks retain state at ~10%
 *  leakage after an idle threshold, so it attacks leakage only, while
 *  compression attacks dynamic energy first; the two compose
 *  (configs: baseline, one per kDrowsyConfigs). */
void
printComparatorDrowsy(const Rows &rows)
{
    const Suite &base = rows[0];
    TextTable t({"config", "dynamic", "leakage", "total vs baseline"});
    t.addRow({"baseline", "1.000", "1.000", "1.000"});
    for (std::size_t c = 0; c < std::size(kDrowsyConfigs); ++c) {
        const Suite &results = rows[c + 1];
        std::vector<double> dyn, leak, tot;
        for (std::size_t i = 0; i < base.size(); ++i) {
            const EnergyBreakdown eb = base[i].run.meter.breakdown();
            const EnergyBreakdown er = results[i].run.meter.breakdown();
            dyn.push_back(er.dynamicPj() / eb.dynamicPj());
            leak.push_back(er.leakagePj() / eb.leakagePj());
            tot.push_back(er.totalPj() / eb.totalPj());
        }
        t.addRow({kDrowsyConfigs[c].name, fmtDouble(mean(dyn), 3),
                  fmtDouble(mean(leak), 3), fmtDouble(mean(tot), 3)});
    }
    t.print(std::cout);

    std::cout << "\n(drowsy attacks leakage only; compression attacks "
                 "dynamic energy and enables gating; combining both "
                 "stacks the savings)\n";
}

struct RfcConfig
{
    const char *name;
    CompressionScheme scheme;
    u32 rfc;
};
constexpr RfcConfig kRfcConfigs[] = {
    {"rfc-6/warp", CompressionScheme::None, 6},
    {"warped-compression", CompressionScheme::Warped, 0},
    {"wc + rfc-6/warp", CompressionScheme::Warped, 6},
};

/** Related work [21] (register file cache, ISCA'11): the RFC filters
 *  operand reads through a small per-warp cache, compression shrinks
 *  every remaining bank access, and the two largely compose (configs:
 *  baseline, one per kRfcConfigs). */
void
printComparatorRfc(const Rows &rows)
{
    const Suite &base = rows[0];
    TextTable t({"config", "bank accesses", "rfc hit rate",
                 "total vs baseline"});
    u64 base_accesses = 0;
    for (const auto &r : base)
        base_accesses += r.run.meter.bankAccesses();
    t.addRow({"baseline", "1.000", "-", "1.000"});

    for (std::size_t c = 0; c < std::size(kRfcConfigs); ++c) {
        const Suite &results = rows[c + 1];
        u64 accesses = 0, hits = 0, misses = 0;
        std::vector<double> tot;
        for (std::size_t i = 0; i < base.size(); ++i) {
            accesses += results[i].run.meter.bankAccesses();
            hits += results[i].run.rfcHits;
            misses += results[i].run.rfcMisses;
            tot.push_back(totalPj(results[i]) / totalPj(base[i]));
        }
        const double hit_rate = hits + misses == 0 ? 0.0
            : static_cast<double>(hits) /
                  static_cast<double>(hits + misses);
        t.addRow({kRfcConfigs[c].name,
                  fmtDouble(static_cast<double>(accesses) /
                                static_cast<double>(base_accesses), 3),
                  kRfcConfigs[c].rfc == 0 ? "-" : fmtPercent(hit_rate),
                  fmtDouble(mean(tot), 3)});
    }
    t.print(std::cout);

    std::cout << "\n(the RFC removes reads it captures; compression "
                 "shrinks every access that still reaches the banks — "
                 "combining both beats either alone)\n";
}

/** Baseline followed by one config per element of @p items. */
template <typename Item, std::size_t N, typename Make>
std::vector<ExperimentConfig>
baselineThen(const Item (&items)[N], Make make)
{
    std::vector<ExperimentConfig> configs = {baseline()};
    for (const Item &item : items)
        configs.push_back(warped(
            [&](ExperimentConfig &c) { make(c, item); }));
    return configs;
}

/** Every entry, in the order `all` prints them. */
const std::vector<Figure> &
figures()
{
    using CS = CompressionScheme;
    static const std::vector<Figure> table = {
        {"table1", "Chunk-size combinations", "Table 1", {}, printTable1},
        {"fig02", "Register value similarity", "Figure 2", {warped()},
         printFig02},
        {"fig03", "Non-divergent warp instruction ratio", "Figure 3",
         {warped()}, printFig03},
        {"fig05", "Best <base,delta> selection breakdown", "Figure 5",
         {warped([](ExperimentConfig &c) {
             c.collectBdiBreakdown = true;
         })},
         printFig05},
        {"fig08", "Compression ratio by execution phase", "Figure 8",
         {warped()}, printFig08},
        {"fig09", "Register file energy consumption", "Figure 9",
         {baseline(), warped()}, printFig09},
        {"fig10", "Power-gated cycles per register bank", "Figure 10",
         {warped()}, printFig10},
        {"fig11", "Dummy MOV instruction overhead", "Figure 11",
         {warped()}, printFig11},
        {"fig12", "Compressed registers by phase", "Figure 12",
         {warped()}, printFig12},
        {"fig13", "Execution time impact", "Figure 13",
         {baseline(), warped()}, printFig13},
        {"fig14", "Energy reduction: GTO vs LRR schedulers", "Figure 14",
         {baseline(), warped(),
          warped([](ExperimentConfig &c) {
              c.scheme = CS::None;
              c.sched = SchedPolicy::Lrr;
          }),
          warped([](ExperimentConfig &c) { c.sched = SchedPolicy::Lrr; })},
         printFig14},
        {"fig15", "Compression ratio per parameter choice", "Figure 15",
         {warped(), withScheme(CS::Fixed40), withScheme(CS::Fixed41),
          withScheme(CS::Fixed42)},
         printFig15},
        {"fig16", "Energy per compression parameter choice", "Figure 16",
         {baseline(), warped(), withScheme(CS::Fixed40),
          withScheme(CS::Fixed41), withScheme(CS::Fixed42)},
         printFig16},
        {"fig17", "Energy vs comp/decomp activation energy", "Figure 17",
         {baseline(), warped()}, printFig17},
        {"fig18", "Energy vs per-bank access energy", "Figure 18",
         {baseline(), warped()}, printFig18},
        {"fig19", "Energy vs wire activity", "Figure 19",
         {baseline(), warped()}, printFig19},
        {"fig20", "Execution time vs compression latency", "Figure 20",
         baselineThen(kLatencies,
                      [](ExperimentConfig &c, u32 lat) {
                          c.compressLatency = lat;
                      }),
         printFig20},
        {"fig21", "Execution time vs decompression latency", "Figure 21",
         baselineThen(kLatencies,
                      [](ExperimentConfig &c, u32 lat) {
                          c.decompressLatency = lat;
                      }),
         printFig21},
        {"ablation_divergence", "Divergence-handling policy ablation",
         "the Sec. 5.2 design discussion",
         {baseline(), warped(),
          warped([](ExperimentConfig &c) {
              c.divPolicy = DivergencePolicy::MergeRecompress;
          })},
         printAblationDivergence},
        {"ablation_gating", "Power-gating contribution ablation",
         "the Sec. 5.3 mechanism split",
         {baseline(),
          warped([](ExperimentConfig &c) { c.enableGating = false; }),
          warped()},
         printAblationGating},
        {"ablation_wakeup", "Bank wakeup-latency ablation",
         "the Table 2 wakeup assumption",
         baselineThen(kWakeups,
                      [](ExperimentConfig &c, u32 wake) {
                          c.wakeupLatency = wake;
                      }),
         printAblationWakeup},
        {"ablation_units", "Compressor/decompressor pool sizing",
         "the Sec. 5.1 sizing argument",
         baselineThen(kSizings,
                      [](ExperimentConfig &c, const Sizing &s) {
                          c.numCompressors = s.comp;
                          c.numDecompressors = s.decomp;
                      }),
         printAblationUnits},
        {"comparator_drowsy", "Drowsy register file comparator",
         "the related-work comparison in Sec. 7",
         baselineThen(kDrowsyConfigs,
                      [](ExperimentConfig &c, const DrowsyConfig &d) {
                          c.scheme = d.scheme;
                          c.drowsy = d.drowsy;
                      }),
         printComparatorDrowsy},
        {"comparator_rfc", "Register-file-cache comparator",
         "the related-work comparison in Sec. 7",
         baselineThen(kRfcConfigs,
                      [](ExperimentConfig &c, const RfcConfig &r) {
                          c.scheme = r.scheme;
                          c.rfcEntries = r.rfc;
                      }),
         printComparatorRfc},
    };
    return table;
}

/** The entries named on the command line (`all` names every one).
 *  With no name, or any unknown one, lists the names and exits 2:
 *  parseHarnessArgs ignores what it does not know, so nothing else
 *  would catch a typo. */
std::vector<const Figure *>
requestedFigures(int argc, char **argv)
{
    std::vector<const Figure *> out;
    bool ok = true;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--", 2) == 0)
            continue;
        if (std::strcmp(arg, "all") == 0) {
            for (const Figure &f : figures())
                out.push_back(&f);
            continue;
        }
        const Figure *found = nullptr;
        for (const Figure &f : figures())
            if (std::strcmp(arg, f.name) == 0)
                found = &f;
        if (found == nullptr) {
            std::cerr << "reproduce: unknown name '" << arg << "'\n";
            ok = false;
        }
        out.push_back(found);
    }
    if (!ok || out.empty()) {
        std::cerr << "usage: reproduce NAME... | all [--sms=N --only=W "
                     "--threads=N ...]\nnames: all";
        for (const Figure &f : figures())
            std::cerr << ' ' << f.name;
        std::cerr << '\n';
        std::exit(2);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<const Figure *> requested =
        requestedFigures(argc, argv);
    const HarnessOptions opt = parseHarnessArgs(argc, argv);
    const std::vector<std::string> names = bench::selectedWorkloads(opt);

    // configToSpec covers every result-bearing field and leaves out
    // the obs settings runSelected adds, so equal keys mean equal rows.
    std::map<std::string, Suite> runs;
    for (const Figure *f : requested) {
        bench::banner(f->title, f->paperRef);
        Rows rows{names, {}};
        for (const ExperimentConfig &cfg : f->configs) {
            auto [it, fresh] = runs.try_emplace(configToSpec(cfg));
            if (fresh)
                it->second = bench::runSelected(opt, cfg);
            rows.suites.push_back(&it->second);
        }
        f->print(rows);
    }
    return 0;
}
