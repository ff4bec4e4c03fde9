/**
 * @file
 * perfbench driver: runs one benchmark workload of the simulator for a
 * fixed time and prints one JSON result line.
 *
 *   perfbench --workload suite|figures|trace|sweep --seed N
 *             --seconds S --trace 0|1 [--work-dir DIR]
 *
 * With --trace 0 the result holds the end-to-end metrics; with
 * --trace 1 the same rounds run with spans recorded around every call
 * into the simulator, and the result holds the per-layer metrics (the
 * spans are also written to DIR/spans-WORKLOAD-seedN.jsonl). A
 * `--point=` argument makes the binary a sweep child (see sweep.cpp).
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "perfbench.hpp"
#include "sim/gpu.hpp"
#include "sweep/sweep.hpp"

namespace perfbench {

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process CPU seconds (user + system), reaped children included. */
double
cpuSeconds()
{
    double total = 0.0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        ::getrusage(who, &ru);
        total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec)
            + 1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                         ru.ru_stime.tv_usec);
    }
    return total;
}

} // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1u << 14);
}

int
Tracer::open(const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start = secondsSince(t0_);
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size() - 1);
    open_.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    if (id < 0)
        return;
    spans_[static_cast<std::size_t>(id)].end = secondsSince(t0_);
    open_.pop_back();
}

std::vector<double>
Tracer::sumPerRoot(const std::string &root, const std::string &name) const
{
    std::map<int, double> sums;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == root)
            sums[static_cast<int>(i)] = 0.0;
    for (const Span &s : spans_) {
        if (s.name != name)
            continue;
        for (int p = s.parent; p >= 0;
             p = spans_[static_cast<std::size_t>(p)].parent) {
            auto it = sums.find(p);
            if (it != sums.end()) {
                it->second += s.end - s.start;
                break;
            }
        }
    }
    std::vector<double> out;
    for (const auto &kv : sums)
        out.push_back(kv.second);
    return out;
}

std::vector<double>
Tracer::coveragePerRoot(const std::string &root) const
{
    std::map<int, double> covered;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == root)
            covered[static_cast<int>(i)] = 0.0;
    for (const Span &s : spans_) {
        auto it = covered.find(s.parent);
        if (it != covered.end())
            it->second += s.end - s.start;
    }
    std::vector<double> out;
    for (const auto &kv : covered) {
        const Span &r = spans_[static_cast<std::size_t>(kv.first)];
        out.push_back(kv.second / (r.end - r.start));
    }
    return out;
}

void
Tracer::writeJsonLines(const std::string &path) const
{
    std::ofstream os(path);
    char line[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(line, sizeof line,
                      "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                      "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                      i, s.parent, s.name.c_str(), s.start, s.end);
        os << line;
    }
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    if (correct)
        std::cerr << "perfbench: check failed: " << what << '\n';
    correct = false;
}

namespace {

/** Period of CpuRotation's moves. */
constexpr auto kRotationPeriod = std::chrono::milliseconds(100);

/**
 * Set-up repeats for at least this long: a single build of a workload's
 * inputs takes 0.1-15 ms, far shorter than the host's slow spells, so
 * the median is taken over repetitions spread across a second and
 * across all cores.
 */
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMinSetupReps = 15;

std::vector<int>
usableCpuList()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

void
pinThread(int tid, const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    ::sched_setaffinity(tid, sizeof set, &set);
}

const std::vector<int> &
allCpus()
{
    static const std::vector<int> cpus = usableCpuList();
    return cpus;
}

/**
 * Seconds the hypervisor has stolen from each CPU since boot, indexed
 * by CPU number, from /proc/stat. Stolen time is time a virtual CPU was
 * runnable but the host ran something else; the guest still counts it
 * as run time of the thread that was on that CPU. Empty where
 * /proc/stat cannot be read, which turns the steal correction off.
 */
std::vector<double>
stealByCpu()
{
    static const double tick =
        1.0 / static_cast<double>(std::max(1L, ::sysconf(_SC_CLK_TCK)));
    std::vector<double> steal;
    std::ifstream in("/proc/stat");
    std::string line;
    while (std::getline(in, line)) {
        // "cpuN user nice system idle iowait irq softirq steal ..."
        if (line.size() < 4 || line.compare(0, 3, "cpu") != 0 ||
            !std::isdigit(static_cast<unsigned char>(line[3])))
            continue;
        std::istringstream is(line.substr(3));
        std::size_t cpu = 0;
        u64 field[8] = {};
        is >> cpu;
        for (u64 &f : field)
            is >> f;
        if (!is)
            continue;
        if (steal.size() <= cpu)
            steal.resize(cpu + 1, 0.0);
        steal[cpu] = static_cast<double>(field[7]) * tick;
    }
    return steal;
}

double
stealOn(int cpu)
{
    const std::vector<double> steal = stealByCpu();
    const auto c = static_cast<std::size_t>(cpu);
    return c < steal.size() ? steal[c] : 0.0;
}

/** Steal summed over the usable CPUs since @p before was read. */
double
stolenSince(const std::vector<double> &before)
{
    const std::vector<double> after = stealByCpu();
    double total = 0.0;
    for (int cpu : allCpus()) {
        const auto c = static_cast<std::size_t>(cpu);
        if (c < before.size() && c < after.size())
            total += after[c] - before[c];
    }
    return total;
}

} // namespace

CpuRotation::CpuRotation()
    : tid_(static_cast<int>(::syscall(SYS_gettid))),
      mover_([this] { loop(); })
{
}

CpuRotation::~CpuRotation()
{
    finish();
}

double
CpuRotation::finish()
{
    if (mover_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        mover_.join();
        pinThread(tid_, allCpus());
    }
    return stolen_;
}

void
CpuRotation::loop()
{
    const std::vector<int> &cpus = allCpus();
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t i = 0; !stop_; ++i) {
        const int cpu = cpus[i % cpus.size()];
        pinThread(tid_, {cpu});
        const double before = stealOn(cpu);
        cv_.wait_for(lock, kRotationPeriod, [this] { return stop_; });
        stolen_ += stealOn(cpu) - before;
    }
}

void
measureSetup(Context &ctx, Outcome &out, const std::function<void()> &body)
{
    CpuRotation rotate;
    const auto start = Clock::now();
    while (out.setup.size() < kMinSetupReps ||
           secondsSince(start) < kSetupSeconds) {
        const auto t0 = Clock::now();
        {
            Scope s(ctx.tracer, "bench.setup");
            body();
        }
        out.setup.push_back(secondsSince(t0));
    }
    const double elapsed = secondsSince(start);
    out.setupStolenShare = std::clamp(rotate.finish() / elapsed, 0.0, 1.0);
}

void
runRounds(Context &ctx, Outcome &out, RoundThreads threads,
          const std::function<void()> &prepare,
          const std::function<void(Round &)> &round)
{
    const auto start = Clock::now();
    do {
        prepare();
        Round r;
        const double cpu0 = cpuSeconds();
        const auto t0 = Clock::now();
        {
            Scope s(ctx.tracer, "bench.round");
            if (threads == RoundThreads::One) {
                CpuRotation rotate;
                round(r);
                r.stolen = rotate.finish();
            } else {
                const std::vector<double> before = stealByCpu();
                round(r);
                r.stolen = stolenSince(before) /
                    static_cast<double>(allCpus().size());
            }
        }
        r.wall = secondsSince(t0) - r.stolen;
        r.cpu = cpuSeconds() - cpu0;
        out.rounds.push_back(std::move(r));
    } while (secondsSince(start) < ctx.seconds);
}

void
addRunCounts(Round &r, const warpcomp::RunResult &run)
{
    const warpcomp::SimStats &st = run.stats;
    auto add = [&](const char *name, warpcomp::u64 v) {
        r.counts[name] += static_cast<double>(v);
    };
    add("sim.warp_insts", st.issued);
    add("sim.cycles", run.cycles);
    add("compress.reg_writes", st.regWrites);
    add("compress.writes_compressed", st.writesStoredCompressed);
    add("compress.dummy_movs", st.dummyMovs);
    add("regfile.bank_reads", run.meter.bankReads());
    add("regfile.bank_writes", run.meter.bankWrites());
    add("regfile.awake_bank_cycles", run.meter.awakeBankCycles());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

u64
fileBytes(const std::string &path)
{
    std::error_code ec;
    const auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<u64>(n);
}

namespace {

struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
};

double
peakRssMb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::vector<double>
countPerRound(const Outcome &out, const std::string &name)
{
    std::vector<double> v;
    for (const Round &r : out.rounds) {
        const auto it = r.counts.find(name);
        v.push_back(it == r.counts.end() ? 0.0 : it->second);
    }
    return v;
}

std::vector<Metric>
endToEnd(const Outcome &out)
{
    std::vector<double> walls, cpus;
    for (const Round &r : out.rounds) {
        walls.push_back(r.wall);
        cpus.push_back(r.cpu);
    }
    const double wall = median(walls);
    auto count = [&](const std::string &name) {
        return median(countPerRound(out, name));
    };
    // Workloads that write no dump count the issue and dummy-MOV
    // events their runs would put in one: exactly the issued count.
    const double events = count("obs.events") > 0.0
        ? count("obs.events") : count("sim.warp_insts");
    return {
        {"setup_s", "s", median(out.setup) * (1.0 - out.setupStolenShare)},
        {"wall_s", "s", wall},
        {"cpu_s", "s", median(cpus)},
        {"warp_insts_per_s", "1/s", count("sim.warp_insts") / wall},
        {"trace_events_per_s", "1/s", events / wall},
        {"sweep_points_per_s", "1/s", count("points") / wall},
        {"peak_rss_mb", "MB", peakRssMb()},
        {"sim_cycles", "cycles", count("sim.cycles")},
        {"rf_energy_uj", "uJ", count("rf_energy_pj") * 1e-6},
    };
}

/**
 * A layer's time: from the set-up spans when the layer ran during
 * set-up (input building), else from the round spans, else from the
 * round counts (host seconds the library measured itself, where the
 * call into the layer happens inside another library function).
 */
std::vector<double>
layerSeconds(const Context &ctx, const Outcome &out, const std::string &span)
{
    std::vector<double> v = ctx.tracer.sumPerRoot("bench.setup", span);
    if (median(v) > 0.0)
        return v;
    v = ctx.tracer.sumPerRoot("bench.round", span);
    if (median(v) > 0.0)
        return v;
    return countPerRound(out, span + "_s");
}

std::vector<Metric>
perLayer(const Context &ctx, const Outcome &out)
{
    std::vector<Metric> m;
    auto seconds = [&](const std::string &name) {
        const std::string span = name.substr(0, name.size() - 2);
        m.push_back({name, "s", median(layerSeconds(ctx, out, span))});
    };
    auto count = [&](const std::string &name, const char *unit) {
        m.push_back({name, unit, median(countPerRound(out, name))});
    };
    auto nsPer = [&](const std::string &name, const std::string &span,
                     const std::string &den) {
        const std::vector<double> secs = layerSeconds(ctx, out, span);
        const std::vector<double> n = countPerRound(out, den);
        std::vector<double> v;
        for (std::size_t i = 0; i < secs.size() && i < n.size(); ++i)
            v.push_back(n[i] > 0.0 ? secs[i] * 1e9 / n[i] : 0.0);
        m.push_back({name, "ns", median(v)});
    };

    seconds("workloads.build_s");
    seconds("frontend.load_s");
    seconds("frontend.translate_s");
    seconds("sim.run_s");
    nsPer("sim.ns_per_warp_inst", "sim.run", "sim.warp_insts");
    count("sim.warp_insts", "count");
    count("sim.cycles", "cycles");
    nsPer("compress.encode_ns", "compress.encode", "compress.images");
    nsPer("compress.decode_ns", "compress.decode", "compress.images");
    count("compress.reg_writes", "count");
    count("compress.writes_compressed", "count");
    count("compress.dummy_movs", "count");
    count("regfile.bank_reads", "count");
    count("regfile.bank_writes", "count");
    count("regfile.awake_bank_cycles", "cycles");
    seconds("power.price_s");
    seconds("analysis.reduce_s");
    seconds("harness.grid_s");
    seconds("harness.busy_s");
    count("harness.points", "count");
    seconds("obs.stream_run_s");
    count("obs.events", "count");
    count("obs.dump_bytes", "bytes");
    seconds("obs.stats_json_s");
    seconds("obs.load_s");
    seconds("obs.summary_s");
    seconds("obs.heatmap_s");
    seconds("obs.stalls_s");
    seconds("obs.decisions_s");
    seconds("obs.export_s");
    seconds("sweep.fresh_s");
    seconds("sweep.resume_s");
    count("sweep.spawned", "count");
    count("sweep.cache_hits", "count");
    count("sweep.journal_bytes", "bytes");
    count("fault.seu_flips", "count");
    count("fault.ecc_corrected", "count");

    std::vector<double> walls, stolen;
    for (const Round &r : out.rounds) {
        walls.push_back(r.wall);
        stolen.push_back(r.stolen);
    }
    m.push_back({"bench.wall_s", "s", median(walls)});
    m.push_back({"bench.steal_s", "s", median(stolen)});
    m.push_back({"bench.span_coverage", "fraction",
                 median(ctx.tracer.coveragePerRoot("bench.round"))});
    return m;
}

void
printResult(const Outcome &out, const std::vector<Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += out.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        if (i > 0)
            line += ", ";
        line += "\"" + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    line += "}}";
    std::cout << line << std::endl;
}

u32
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<u32>(std::max(1, CPU_COUNT(&set)));
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<u32>(n) : 1u;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload suite|figures|trace|sweep "
                 "--seed N --seconds S --trace 0|1 [--work-dir DIR]\n";
    std::exit(2);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--point=", 8) == 0)
            return warpcomp::runSweepChildPoint(
                warpcomp::parseSweepArgs(argc, argv));

    Context ctx;
    bool trace = false;
    std::string work_root = ".bench_build/perfbench/work";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            ctx.workload = val;
        } else if (arg == "--seed") {
            ctx.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0')
                usage("--seed wants a non-negative integer");
        } else if (arg == "--seconds") {
            ctx.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(ctx.seconds > 0.0))
                usage("--seconds wants a positive number");
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace wants 0 or 1");
            trace = val == "1";
        } else if (arg == "--work-dir") {
            work_root = val;
        } else {
            usage("unknown argument " + arg);
        }
    }

    Outcome (*run)(Context &) = nullptr;
    if (ctx.workload == "suite")
        run = runSuite;
    else if (ctx.workload == "figures")
        run = runFigures;
    else if (ctx.workload == "trace")
        run = runTrace;
    else if (ctx.workload == "sweep")
        run = runSweep;
    else
        usage("unknown workload '" + ctx.workload + "'");

    ctx.tracer = Tracer(trace);
    ctx.threads = usableCpus();
    ctx.selfPath = std::filesystem::absolute(argv[0]).string();
    ctx.workDir = work_root + "/" + ctx.workload + "-" +
        std::to_string(::getpid());
    std::filesystem::create_directories(ctx.workDir);

    Outcome out;
    try {
        out = run(ctx);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << '\n';
        std::filesystem::remove_all(ctx.workDir);
        return 1;
    }
    std::filesystem::remove_all(ctx.workDir);

    if (trace)
        ctx.tracer.writeJsonLines(work_root + "/spans-" + ctx.workload +
                                  "-seed" + std::to_string(ctx.seed) +
                                  ".jsonl");
    printResult(out, trace ? perLayer(ctx, out) : endToEnd(out));
    return 0;
}
