/**
 * @file
 * `trace` workload: the longest kernel (histo) runs with the streaming
 * dump and the stats JSON armed; the dump is then loaded and every
 * offline analyzer runs over it (summary, heatmap, stalls, decisions,
 * Chrome export), each writing its report to a file.
 *
 * The simulation part matches `suite`, so what the obs hooks and the
 * sink cost shows as a difference from it.
 */

#include <array>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/json_parse.hpp"
#include "common/json_writer.hpp"
#include "harness/experiment.hpp"
#include "obs/stats_json.hpp"
#include "obs/trace_analyze.hpp"
#include "obs/trace_stream.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace warpcomp;

namespace {

const char *const kKernel = "histo";

/**
 * Streaming JSON syntax check: the Chrome export runs to hundreds of
 * megabytes, so it is read through a small buffer instead of being
 * parsed into a document.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &path)
        : in_(path, std::ios::binary)
    {
    }

    bool
    valid()
    {
        if (!in_)
            return false;
        skipSpace();
        if (!value(0))
            return false;
        skipSpace();
        return peek() == kEnd;
    }

  private:
    static constexpr int kEnd = -1;

    int
    peek()
    {
        if (pos_ == len_) {
            in_.read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
            len_ = static_cast<std::size_t>(in_.gcount());
            pos_ = 0;
            if (len_ == 0)
                return kEnd;
        }
        return static_cast<unsigned char>(buf_[pos_]);
    }

    int
    get()
    {
        const int c = peek();
        if (c != kEnd)
            ++pos_;
        return c;
    }

    void
    skipSpace()
    {
        for (int c = peek(); c == ' ' || c == '\n' || c == '\r' || c == '\t';
             c = peek())
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p != '\0'; ++p)
            if (get() != *p)
                return false;
        return true;
    }

    bool
    string()
    {
        if (get() != '"')
            return false;
        for (;;) {
            const int c = get();
            if (c == '"')
                return true;
            if (c == kEnd || c < 0x20)
                return false;
            if (c == '\\' && get() == kEnd)
                return false;
        }
    }

    bool
    number()
    {
        bool digits = false;
        for (int c = peek(); c != kEnd; c = peek()) {
            if ((c >= '0' && c <= '9'))
                digits = true;
            else if (c != '-' && c != '+' && c != '.' && c != 'e' && c != 'E')
                break;
            ++pos_;
        }
        return digits;
    }

    bool
    value(int depth)
    {
        if (depth > 64)
            return false;
        const int c = peek();
        if (c == '{' || c == '[') {
            const int close = c == '{' ? '}' : ']';
            get();
            skipSpace();
            if (peek() == close) {
                get();
                return true;
            }
            for (;;) {
                skipSpace();
                if (c == '{') {
                    if (!string())
                        return false;
                    skipSpace();
                    if (get() != ':')
                        return false;
                    skipSpace();
                }
                if (!value(depth + 1))
                    return false;
                skipSpace();
                const int sep = get();
                if (sep == close)
                    return true;
                if (sep != ',')
                    return false;
            }
        }
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    std::ifstream in_;
    std::array<char, 1 << 20> buf_{};
    std::size_t pos_ = 0;
    std::size_t len_ = 0;
};

bool
parsesAsJson(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return in && parseJson(ss.str()).value.has_value();
}

} // namespace

Outcome
runTrace(Context &ctx)
{
    Outcome out;
    measureSetup(ctx, out, [&] {
        Scope s(ctx.tracer, "workloads.build");
        makeWorkload(kKernel, 1, ctx.seed);
    });

    const std::string dump_path = ctx.workDir + "/histo.dump";
    ExperimentConfig cfg;
    cfg.seedSalt = ctx.seed;
    cfg.obs.windowInterval = 1000;
    cfg.obs.streamPath = dump_path;
    cfg.obs.streamLabel = "perfbench trace";

    using Report = void (*)(std::ostream &, const TraceDump &);
    const std::array<std::pair<const char *, Report>, 5> reports = {{
        {"obs.summary", writeDumpSummary},
        {"obs.heatmap", writeBankHeatmap},
        {"obs.stalls", writeStallReport},
        {"obs.decisions", writeDecisionReport},
        {"obs.export", writeDumpChromeTrace},
    }};
    auto reportPath = [&](const char *span) {
        return ctx.workDir + "/" + (span + 4) + ".json";
    };

    runRounds(ctx, out, RoundThreads::One, [] {}, [&](Round &r) {
        out.attempted += 3 + reports.size();
        const ExperimentResult res = [&] {
            Scope s(ctx.tracer, "obs.stream_run");
            return runWorkload(kKernel, cfg);
        }();
        {
            Scope s(ctx.tracer, "obs.stats_json");
            std::ofstream os(ctx.workDir + "/stats.json");
            JsonWriter w(os);
            writeRunStatsJson(w, res.run, cfg.numSms);
        }
        TraceDumpError err;
        std::optional<TraceDump> dump;
        {
            Scope s(ctx.tracer, "obs.load");
            dump = loadTraceDump(dump_path, &err);
        }
        if (!dump.has_value()) {
            out.failed += 1 + reports.size();
            out.check(false, "trace dump loads: " + err.code + " " +
                                 err.detail);
            return;
        }
        for (const auto &[span, report] : reports) {
            Scope s(ctx.tracer, span);
            std::ofstream os(reportPath(span));
            report(os, *dump);
        }

        u64 issue = 0, dummy = 0, decompress = 0;
        for (const TraceEvent &ev : dump->events) {
            issue += ev.kind == TraceEventKind::WarpIssue;
            dummy += ev.kind == TraceEventKind::DummyMov;
            decompress += ev.kind == TraceEventKind::Decompress;
        }
        const RunResult &run = res.run;
        out.check(issue + dummy == run.stats.issued,
                  "dump census: issue + dummy_mov == stats.issued");
        out.check(dummy == run.stats.dummyMovs,
                  "dump census: dummy_mov == dummy MOVs");
        out.check(decompress == run.meter.decompActivations(),
                  "dump census: decompress == decompressor activations");

        addRunCounts(r, run);
        r.counts["sim.run_s"] += res.wallSeconds;
        r.counts["points"] += 1;
        r.counts["rf_energy_pj"] += run.meter.breakdown().totalPj();
        r.counts["obs.events"] = static_cast<double>(dump->events.size());
        r.counts["obs.dump_bytes"] = static_cast<double>(fileBytes(dump_path));
    });

    // The last round's reports stay on disk for these checks.
    out.check(JsonChecker(reportPath("obs.export")).valid(),
              "the Chrome export parses as JSON");
    for (const char *span : {"obs.summary", "obs.heatmap", "obs.stalls",
                             "obs.decisions"})
        out.check(parsesAsJson(reportPath(span)),
                  std::string(span) + " report parses as JSON");
    out.check(parsesAsJson(ctx.workDir + "/stats.json"),
              "the stats JSON parses");
    return out;
}

} // namespace perfbench
