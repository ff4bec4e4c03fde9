/**
 * @file
 * Observability subsystem tests: the trace ring, windowed counters,
 * no-perturbation (attaching the tracer must not change the simulated
 * machine), Chrome trace export content, and byte-level determinism of
 * both exporters across reruns and harness thread counts.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/experiment.hpp"
#include "isa/builder.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/obs.hpp"
#include "obs/stats_json.hpp"

namespace warpcomp {
namespace {

// ---------------------------------------------------------------- ring

TEST(TraceRing, HoldsEventsUpToCapacity)
{
    TraceRing ring(4);
    for (u32 i = 0; i < 3; ++i)
        ring.push({i, i, 0, 0, 0, TraceEventKind::WarpIssue});
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_EQ(ring.pushed(), 3u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.at(0).cycle, 0u);
    EXPECT_EQ(ring.at(2).cycle, 2u);
}

TEST(TraceRing, WrapDropsOldestKeepsChronologicalOrder)
{
    TraceRing ring(4);
    for (u32 i = 0; i < 10; ++i)
        ring.push({i, i, 0, 0, 0, TraceEventKind::WarpIssue});
    EXPECT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.pushed(), 10u);
    EXPECT_EQ(ring.dropped(), 6u);
    // The survivors are the most recent events, oldest first.
    for (u32 i = 0; i < 4; ++i)
        EXPECT_EQ(ring.at(i).cycle, 6u + i);
}

TEST(TraceRing, ZeroCapacityCountsOffersWithoutStoring)
{
    TraceRing ring(0);
    ring.push({1, 0, 0, 0, 0, TraceEventKind::WarpIssue});
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.pushed(), 1u);
    EXPECT_EQ(ring.dropped(), 1u);
}

// ------------------------------------------------------------- windows

TEST(ObsWindows, AccumulatesIntoIntervalRows)
{
    ObsWindows win(100);
    win.onCycle(0, 2, 8);
    win.onIssue(5, false);
    win.onIssue(7, true);          // dummy MOV counts as an issue too
    win.onWrite(10, 32);
    win.onCycle(150, 4, 8);        // second window
    ASSERT_EQ(win.rows().size(), 2u);

    const WindowRow &r0 = win.rows()[0];
    EXPECT_EQ(r0.issued, 2u);
    EXPECT_EQ(r0.dummyMovs, 1u);
    EXPECT_EQ(r0.regWrites, 1u);
    EXPECT_EQ(r0.storedBytes, 32u);
    EXPECT_EQ(r0.rawBytes, static_cast<u64>(kWarpRegBytes));
    EXPECT_EQ(r0.gatedBankCycles, 2u);
    EXPECT_EQ(r0.bankCycles, 8u);
    EXPECT_EQ(r0.smCycles, 1u);

    const WindowRow &r1 = win.rows()[1];
    EXPECT_EQ(r1.gatedBankCycles, 4u);
    EXPECT_EQ(r1.issued, 0u);
}

TEST(ObsRun, TraceWindowFiltersEvents)
{
    ObsParams p;
    p.trace = true;
    p.traceStart = 100;
    p.traceEnd = 200;
    p.ringCapacity = 16;
    ObsRun obs(p);
    obs.onWarpIssue(0, 0, 0, 32, 50);    // before the window
    obs.onWarpIssue(0, 0, 0, 32, 100);   // first cycle inside
    obs.onWarpIssue(0, 0, 0, 32, 199);   // last cycle inside
    obs.onWarpIssue(0, 0, 0, 32, 200);   // END is exclusive
    EXPECT_EQ(obs.ring().size(), 2u);
    EXPECT_EQ(obs.ring().at(0).cycle, 100u);
    EXPECT_EQ(obs.ring().at(1).cycle, 199u);
}

// -------------------------------------------------- mini JSON checker

/**
 * Minimal recursive-descent JSON validator: enough to prove exported
 * documents are well-formed without pulling in a JSON library.
 */
class MiniJson
{
  public:
    explicit MiniJson(std::string_view s) : s_(s) {}

    bool
    valid()
    {
        skipWs();
        if (!parseValue())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool eof() const { return pos_ >= s_.size(); }
    char peek() const { return s_[pos_]; }

    void
    skipWs()
    {
        while (!eof() && (peek() == ' ' || peek() == '\n' ||
                          peek() == '\t' || peek() == '\r'))
            ++pos_;
    }

    bool
    literal(std::string_view word)
    {
        if (s_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseString()
    {
        if (eof() || peek() != '"')
            return false;
        ++pos_;
        while (!eof() && peek() != '"') {
            if (peek() == '\\') {
                ++pos_;
                if (eof())
                    return false;
            }
            ++pos_;
        }
        if (eof())
            return false;
        ++pos_;                     // closing quote
        return true;
    }

    bool
    parseNumber()
    {
        const std::size_t start = pos_;
        if (!eof() && (peek() == '-' || peek() == '+'))
            ++pos_;
        while (!eof() &&
               ((peek() >= '0' && peek() <= '9') || peek() == '.' ||
                peek() == 'e' || peek() == 'E' || peek() == '-' ||
                peek() == '+'))
            ++pos_;
        return pos_ > start;
    }

    bool
    parseValue()
    {
        if (eof())
            return false;
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return parseNumber();
        }
    }

    bool
    parseObject()
    {
        ++pos_;                     // '{'
        skipWs();
        if (!eof() && peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!parseString())
                return false;
            skipWs();
            if (eof() || peek() != ':')
                return false;
            ++pos_;
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (eof())
                return false;
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    parseArray()
    {
        ++pos_;                     // '['
        skipWs();
        if (!eof() && peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!parseValue())
                return false;
            skipWs();
            if (eof())
                return false;
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

TEST(MiniJsonSelfTest, AcceptsAndRejects)
{
    EXPECT_TRUE(MiniJson("{\"a\": [1, -2.5e3, null, \"x\\\"y\"]}")
                    .valid());
    EXPECT_TRUE(MiniJson("[]").valid());
    EXPECT_FALSE(MiniJson("{\"a\": }").valid());
    EXPECT_FALSE(MiniJson("[1, 2").valid());
    EXPECT_FALSE(MiniJson("{} trailing").valid());
}

// ------------------------------------------------- Chrome trace export

class ObsTraceTest : public ::testing::Test
{
  protected:
    ObsTraceTest() : gmem_(8 << 20), cmem_(64) {}

    /** Uniform write, divergent rewrite, store — triggers the
     *  write-uncompressed policy's dummy decompress-MOVs. */
    Kernel
    divergentRewriteKernel(u64 out)
    {
        KernelBuilder b("divrw");
        Reg lane = b.newReg(), v = b.newReg();
        Pred p = b.newPred();
        b.s2r(lane, SpecialReg::LaneId);
        b.movImm(v, 7);
        b.isetp(p, CmpOp::Lt, lane, KernelBuilder::imm(16));
        b.if_(p, [&] { b.iadd(v, v, KernelBuilder::imm(1)); });
        Reg tid = b.newReg(), bid = b.newReg(), ntid = b.newReg();
        b.s2r(tid, SpecialReg::TidX);
        b.s2r(bid, SpecialReg::CtaIdX);
        b.s2r(ntid, SpecialReg::NTidX);
        Reg gid = b.newReg(), addr = b.newReg();
        b.imad(gid, bid, ntid, tid);
        b.imad(addr, gid, KernelBuilder::imm(4),
               KernelBuilder::imm(static_cast<i32>(out)));
        b.stg(addr, v);
        return b.build();
    }

    /** Run the divergent kernel traced and export its Chrome trace. */
    std::string
    tracedRun(CompressionScheme scheme)
    {
        GpuParams gp;
        gp.numSms = 1;
        gp.sm.scheme = scheme;
        gp.sm.applyScheme();
        gp.obs.trace = true;
        gp.obs.windowInterval = 100;
        const u64 out = gmem_.alloc(4 * 256);
        const Kernel k = divergentRewriteKernel(out);
        Gpu gpu(gp, gmem_, cmem_);
        RunResult run = gpu.run(k, {128, 2});
        EXPECT_NE(run.obs, nullptr);

        ChromeTraceMeta meta;
        meta.workload = "divrw";
        meta.config = schemeName(scheme);
        meta.numSms = gp.numSms;
        meta.numBanks = gp.sm.regfile.numBanks;
        meta.cycles = run.cycles;
        std::ostringstream os;
        writeChromeTrace(os, *run.obs, meta);
        return os.str();
    }

    GlobalMemory gmem_;
    ConstantMemory cmem_;
};

TEST_F(ObsTraceTest, WarpedTraceHasCompressionAndGatingEvents)
{
    const std::string trace = tracedRun(CompressionScheme::Warped);
    EXPECT_TRUE(MiniJson(trace).valid()) << "trace is not valid JSON";
    // Warp-lane pipeline events of the compressed design.
    EXPECT_NE(trace.find("\"dummy_mov\""), std::string::npos);
    EXPECT_NE(trace.find("\"compress\""), std::string::npos);
    EXPECT_NE(trace.find("\"issue\""), std::string::npos);
    EXPECT_NE(trace.find("\"writeback\""), std::string::npos);
    // Bank-lane power-gate intervals and their lane metadata.
    EXPECT_NE(trace.find("\"gated\""), std::string::npos);
    EXPECT_NE(trace.find("\"bank "), std::string::npos);
    EXPECT_NE(trace.find("\"warp 0\""), std::string::npos);
    // GPU-wide counter tracks from the windowed timelines.
    EXPECT_NE(trace.find("\"compression_ratio\""), std::string::npos);
    EXPECT_NE(trace.find("\"ipc\""), std::string::npos);
}

TEST_F(ObsTraceTest, NoneTraceHasNoDummyMovsOrGating)
{
    const std::string trace = tracedRun(CompressionScheme::None);
    EXPECT_TRUE(MiniJson(trace).valid()) << "trace is not valid JSON";
    // The uncompressed baseline never injects decompress-MOVs and
    // cannot gate banks.
    EXPECT_EQ(trace.find("\"dummy_mov\""), std::string::npos);
    EXPECT_EQ(trace.find("\"gated\""), std::string::npos);
    EXPECT_NE(trace.find("\"issue\""), std::string::npos);
}

TEST_F(ObsTraceTest, TraceIsByteIdenticalAcrossReruns)
{
    const std::string a = tracedRun(CompressionScheme::Warped);
    const std::string b = tracedRun(CompressionScheme::Warped);
    EXPECT_EQ(a, b);
}

// ------------------------------------------------ Chrome trace layout

/** Serialize a hand-made view; windows and meta as given. */
std::string
chromeOf(const std::vector<TraceEvent> &events,
         const std::vector<WindowRow> &windows, u32 interval,
         const ChromeTraceMeta &meta, Cycle trace_start = 0,
         Cycle trace_end = std::numeric_limits<Cycle>::max())
{
    const ChromeTraceView view{events,     windows,   interval,
                               trace_start, trace_end, 0};
    std::ostringstream os;
    writeChromeTrace(os, view, meta);
    return os.str();
}

ChromeTraceMeta
layoutMeta(u32 sms, Cycle cycles)
{
    ChromeTraceMeta meta;
    meta.workload = "unit";
    meta.config = "Warped";
    meta.numSms = sms;
    meta.numBanks = 8;
    meta.cycles = cycles;
    return meta;
}

/** The document's first line, up to and including "traceEvents":[. */
std::string
headLine(const std::string &workload, u32 sms, Cycle cycles,
         Cycle start, Cycle end, u64 events, u32 interval)
{
    return "{\"otherData\":{\"workload\":\"" + workload +
           "\",\"config\":\"Warped\",\"sms\":" + std::to_string(sms) +
           ",\"banks\":8,\"cycles\":" + std::to_string(cycles) +
           ",\"trace_start\":" + std::to_string(start) +
           ",\"trace_end\":" + std::to_string(end) +
           ",\"events_recorded\":" + std::to_string(events) +
           ",\"events_dropped\":0,\"window_interval\":" +
           std::to_string(interval) +
           ",\"timestamp_unit\":\"cycle\"},\"traceEvents\":[";
}

TEST(ChromeLayout, EveryEventKindHasItsExactLine)
{
    using K = TraceEventKind;
    const std::vector<TraceEvent> events = {
        {10, 0x40, 32, 0, 1, K::WarpIssue},
        {11, 5, 0, 0, 1, K::DummyMov},
        {12, 24, 32, 0, 1, K::CompressDecision, 7},
        {13, 0, 0, 0, 1, K::Decompress},
        {14, 3, 1, 0, 1, K::OperandCollect},
        {15, 2, 1, 0, 1, K::Writeback},
        {16, 0, 0, 0, 3, K::GateOff},
        {20, 10, 0, 0, 3, K::GateWake},
        {21, 4, 0, 0, 1, K::SeuCorruption},
        {22, 8, 0, 0, 2, K::ScrubVisit},
        {23, 0, 0, 0, 1, K::FaultCorruptedWrite},
        {24, 6, 0, 0, 5, K::BankConflict},
    };
    ASSERT_EQ(events.size(), kNumTraceEventKinds);
    WindowRow row;
    row.issued = 10;
    row.smCycles = 200;     // 100 cycles on each of 2 SMs: ipc 0.1
    row.storedBytes = 64;
    row.rawBytes = 256;
    row.gatedBankCycles = 300;
    ChromeTraceMeta meta = layoutMeta(2, 100);
    meta.workload = "unit \"q\"";

    const std::string expected =
        headLine("unit \\\"q\\\"", 2, 100, 0, 100, 12, 50) + "\n"
        R"({"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"GPU"}},
{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"SM0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"warp 1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1002,"args":{"name":"bank 2"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1003,"args":{"name":"bank 3"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1005,"args":{"name":"bank 5"}},
{"name":"issue","ph":"i","s":"t","ts":10,"pid":1,"tid":1,"args":{"pc":64,"lanes":32}},
{"name":"dummy_mov","ph":"i","s":"t","ts":11,"pid":1,"tid":1,"args":{"dst":5}},
{"name":"compress","ph":"i","s":"t","ts":12,"pid":1,"tid":1,"args":{"achieved_bytes":24,"stored_bytes":32,"reg":7}},
{"name":"decompress","ph":"i","s":"t","ts":13,"pid":1,"tid":1,"args":{}},
{"name":"collect","ph":"i","s":"t","ts":14,"pid":1,"tid":1,"args":{"ops":3,"compressed_srcs":1}},
{"name":"writeback","ph":"i","s":"t","ts":15,"pid":1,"tid":1,"args":{"banks":2,"compressed":true}},
{"name":"gated","ph":"X","ts":16,"dur":4,"pid":1,"tid":1003},
{"name":"waking","ph":"X","ts":20,"dur":10,"pid":1,"tid":1003},
{"name":"seu_corruption","ph":"i","s":"t","ts":21,"pid":1,"tid":1,"args":{"lanes":4,"amplified":false}},
{"name":"scrub","ph":"i","s":"t","ts":22,"pid":1,"tid":1002,"args":{"banks":8}},
{"name":"fault_corrupted_write","ph":"i","s":"t","ts":23,"pid":1,"tid":1,"args":{}},
{"name":"bank_conflict","ph":"i","s":"t","ts":24,"pid":1,"tid":1005,"args":{"warp":6}},
{"name":"ipc","ph":"C","ts":0,"pid":0,"tid":0,"args":{"ipc":0.1}},
{"name":"compression_ratio","ph":"C","ts":0,"pid":0,"tid":0,"args":{"ratio":4}},
{"name":"gated_banks","ph":"C","ts":0,"pid":0,"tid":0,"args":{"banks":1.5}}
]}
)";
    const std::string doc = chromeOf(events, {row}, 50, meta);
    EXPECT_EQ(doc, expected);
    EXPECT_TRUE(MiniJson(doc).valid());
}

TEST(ChromeLayout, WakeWithoutGateOffOpensAtTraceStart)
{
    const std::vector<TraceEvent> events = {
        {150, 10, 0, 1, 0, TraceEventKind::GateWake}};
    const std::string expected =
        headLine("unit", 2, 1000, 100, 500, 1, 0) + "\n"
        R"({"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"SM1"}},
{"name":"thread_name","ph":"M","pid":2,"tid":1000,"args":{"name":"bank 0"}},
{"name":"gated","ph":"X","ts":100,"dur":50,"pid":2,"tid":1000},
{"name":"waking","ph":"X","ts":150,"dur":10,"pid":2,"tid":1000}
]}
)";
    EXPECT_EQ(chromeOf(events, {}, 0, layoutMeta(2, 1000), 100, 500),
              expected);
}

TEST(ChromeLayout, GateOffWithoutWakeClosesAtWindowEndInLaneOrder)
{
    // Gated in the order sm1/bank0, sm0/bank1, sm0/bank0; the open
    // intervals come out in (sm, bank) order.
    const std::vector<TraceEvent> events = {
        {20, 0, 0, 1, 0, TraceEventKind::GateOff},
        {30, 0, 0, 0, 1, TraceEventKind::GateOff},
        {40, 0, 0, 0, 0, TraceEventKind::GateOff},
    };
    const std::string lanes =
        R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"SM0"}},
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"SM1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1000,"args":{"name":"bank 0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1001,"args":{"name":"bank 1"}},
{"name":"thread_name","ph":"M","pid":2,"tid":1000,"args":{"name":"bank 0"}},
)";
    // The run ends first: intervals close at its last cycle.
    EXPECT_EQ(chromeOf(events, {}, 0, layoutMeta(2, 90)),
              headLine("unit", 2, 90, 0, 90, 3, 0) + "\n" + lanes +
                  R"({"name":"gated","ph":"X","ts":40,"dur":50,"pid":1,"tid":1000},
{"name":"gated","ph":"X","ts":30,"dur":60,"pid":1,"tid":1001},
{"name":"gated","ph":"X","ts":20,"dur":70,"pid":2,"tid":1000}
]}
)");
    // The traced window ends first: intervals close at its end.
    EXPECT_EQ(chromeOf(events, {}, 0, layoutMeta(2, 90), 0, 70),
              headLine("unit", 2, 90, 0, 70, 3, 0) + "\n" + lanes +
                  R"({"name":"gated","ph":"X","ts":40,"dur":30,"pid":1,"tid":1000},
{"name":"gated","ph":"X","ts":30,"dur":40,"pid":1,"tid":1001},
{"name":"gated","ph":"X","ts":20,"dur":50,"pid":2,"tid":1000}
]}
)");
}

TEST(ChromeLayout, ZeroSmsGiveZeroIpc)
{
    WindowRow row;
    row.issued = 500;
    row.smCycles = 100;
    const std::string expected =
        headLine("unit", 0, 200, 0, 200, 0, 100) + "\n"
        R"({"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"GPU"}},
{"name":"ipc","ph":"C","ts":0,"pid":0,"tid":0,"args":{"ipc":0}},
{"name":"compression_ratio","ph":"C","ts":0,"pid":0,"tid":0,"args":{"ratio":0}},
{"name":"gated_banks","ph":"C","ts":0,"pid":0,"tid":0,"args":{"banks":0}},
{"name":"ipc","ph":"C","ts":100,"pid":0,"tid":0,"args":{"ipc":0}},
{"name":"compression_ratio","ph":"C","ts":100,"pid":0,"tid":0,"args":{"ratio":0}},
{"name":"gated_banks","ph":"C","ts":100,"pid":0,"tid":0,"args":{"banks":0}}
]}
)";
    EXPECT_EQ(chromeOf({}, {row, row}, 100, layoutMeta(0, 200)), expected);
}

TEST(ChromeLayout, EmptyViewIsAnEmptyEventArray)
{
    const std::string doc = chromeOf({}, {}, 0, layoutMeta(1, 0));
    EXPECT_EQ(doc, headLine("unit", 1, 0, 0, 0, 0, 0) + "\n]}\n");
    EXPECT_TRUE(MiniJson(doc).valid());
}

TEST(ChromeLayout, OutputLargerThanTheFlushBufferArrivesIntact)
{
    // A workload name longer than the buffer, then enough events to
    // fill it several times over.
    ChromeTraceMeta meta = layoutMeta(1, 1);
    meta.workload = std::string(3 * kChromeFlushBytes, 'w');
    std::vector<TraceEvent> events;
    std::string lines;
    for (u32 i = 0; lines.size() < 8 * kChromeFlushBytes; ++i) {
        events.push_back({i, i, 32, 0, 0, TraceEventKind::WarpIssue});
        lines += std::string(i == 0 ? "\n" : ",\n") +
                 "{\"name\":\"issue\",\"ph\":\"i\",\"s\":\"t\",\"ts\":" +
                 std::to_string(i) +
                 ",\"pid\":1,\"tid\":0,\"args\":{\"pc\":" +
                 std::to_string(i) + ",\"lanes\":32}}";
    }
    const std::string expected =
        headLine(meta.workload, 1, 1, 0, 1, events.size(), 0) + "\n" +
        R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"SM0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"warp 0"}},)" +
        lines + "\n]}\n";
    const std::string doc = chromeOf(events, {}, 0, meta);
    EXPECT_GT(doc.size(), 10 * kChromeFlushBytes);
    EXPECT_EQ(doc, expected);
}

TEST(ChromeLayout, LargestSmAndLaneIdsExport)
{
    const std::vector<TraceEvent> events = {
        {1, 0, 32, 65535, 65535, TraceEventKind::WarpIssue},
        {2, 0, 0, 65535, 65535, TraceEventKind::GateOff},
        {3, 9, 0, 65535, 65535, TraceEventKind::BankConflict},
    };
    const std::string expected =
        headLine("unit", 1, 5, 0, 5, 3, 0) + "\n"
        R"({"name":"process_name","ph":"M","pid":65536,"tid":0,"args":{"name":"SM65535"}},
{"name":"thread_name","ph":"M","pid":65536,"tid":65535,"args":{"name":"warp 65535"}},
{"name":"thread_name","ph":"M","pid":65536,"tid":66535,"args":{"name":"bank 65535"}},
{"name":"issue","ph":"i","s":"t","ts":1,"pid":65536,"tid":65535,"args":{"pc":0,"lanes":32}},
{"name":"bank_conflict","ph":"i","s":"t","ts":3,"pid":65536,"tid":66535,"args":{"warp":9}},
{"name":"gated","ph":"X","ts":2,"dur":3,"pid":65536,"tid":66535}
]}
)";
    EXPECT_EQ(chromeOf(events, {}, 0, layoutMeta(1, 5)), expected);
}

// ------------------------------------------------------ no-perturbation

TEST(ObsNoPerturbation, AttachingObsDoesNotChangeTheRun)
{
    ExperimentConfig plain;
    plain.numSms = 2;
    ExperimentConfig observed = plain;
    observed.obs.trace = true;
    observed.obs.windowInterval = 500;

    const RunResult a = runWorkload("stencil", plain).run;
    const RunResult b = runWorkload("stencil", observed).run;
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.issued, b.stats.issued);
    EXPECT_EQ(a.stats.dummyMovs, b.stats.dummyMovs);
    EXPECT_EQ(a.stats.regWrites, b.stats.regWrites);
    EXPECT_EQ(a.stats.writesStoredCompressed,
              b.stats.writesStoredCompressed);
    ASSERT_EQ(a.bankGatedFraction.size(), b.bankGatedFraction.size());
    for (std::size_t i = 0; i < a.bankGatedFraction.size(); ++i)
        EXPECT_DOUBLE_EQ(a.bankGatedFraction[i], b.bankGatedFraction[i]);
    EXPECT_EQ(a.obs, nullptr);
    ASSERT_NE(b.obs, nullptr);
    EXPECT_GT(b.obs->ring().pushed(), 0u);
}

// --------------------------------------------------- stats-json export

TEST(ObsStatsJson, RunDocumentIsValidAndCarriesTimelines)
{
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.obs.windowInterval = 500;
    const RunResult run = runWorkload("stencil", cfg).run;

    std::ostringstream os;
    JsonWriter w(os);
    writeRunStatsJson(w, run, cfg.numSms);
    const std::string doc = os.str();
    EXPECT_TRUE(MiniJson(doc).valid()) << "stats dump is not valid JSON";
    EXPECT_NE(doc.find("\"timelines\""), std::string::npos);
    EXPECT_NE(doc.find("\"compression_ratio\""), std::string::npos);
    EXPECT_NE(doc.find("\"energy\""), std::string::npos);
    EXPECT_NE(doc.find("\"similarity\""), std::string::npos);
}

TEST(ObsStatsJson, ByteIdenticalAcrossRerunsAndThreadCounts)
{
    ExperimentConfig cfg;
    cfg.numSms = 2;
    cfg.obs.windowInterval = 500;
    const std::vector<std::string> names = {"stencil", "lud"};

    const auto serialize = [&](const std::vector<ExperimentResult> &rs) {
        std::ostringstream os;
        JsonWriter w(os);
        w.beginArray();
        for (const ExperimentResult &r : rs) {
            w.beginObject();
            w.field("workload", r.workload);
            w.key("run");
            writeRunStatsJson(w, r.run, cfg.numSms);
            w.endObject();
        }
        w.endArray();
        return os.str();
    };

    const std::string serial = serialize(runWorkloadsParallel(names, cfg, 1));
    const std::string rerun = serialize(runWorkloadsParallel(names, cfg, 1));
    const std::string threaded =
        serialize(runWorkloadsParallel(names, cfg, 4));
    EXPECT_EQ(serial, rerun);
    EXPECT_EQ(serial, threaded);
}

} // namespace
} // namespace warpcomp
