#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <memory>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/json_writer.hpp"
#include "common/log.hpp"

namespace warpcomp {

namespace {

/** pid 0 is the GPU-wide counter track; SM i maps to pid i+1. */
u32
pidOfSm(u16 sm)
{
    return static_cast<u32>(sm) + 1;
}

bool
isBankLaneEvent(TraceEventKind kind)
{
    switch (kind) {
      case TraceEventKind::GateOff:
      case TraceEventKind::GateWake:
      case TraceEventKind::ScrubVisit:
      case TraceEventKind::BankConflict:
        return true;
      default:
        return false;
    }
}

u32
tidOf(const TraceEvent &ev)
{
    return isBankLaneEvent(ev.kind) ? kBankLaneBase + ev.lane : ev.lane;
}

/**
 * The document's bytes on their way to the stream: pieces are appended
 * to one block of kChromeFlushBytes, allocated once per document, and
 * each full block goes out with a single os.write. Keys are literals
 * whose length is known at compile time; integers go through
 * std::to_chars.
 */
class ChromeOut
{
  public:
    explicit ChromeOut(std::ostream &os)
        : os_(os), buf_(std::make_unique<char[]>(kChromeFlushBytes))
    {
    }

    template <std::size_t N>
    void
    lit(const char (&s)[N])
    {
        put(s, N - 1);
    }

    void str(std::string_view s) { put(s.data(), s.size()); }

    /** A JSON string value: quoted, body escaped by JsonWriter. */
    void
    quoted(std::string_view s)
    {
        lit("\"");
        str(JsonWriter::escape(s));
        lit("\"");
    }

    void
    num(u64 v)
    {
        if (kChromeFlushBytes - len_ < 20) // digits of the largest u64
            flush();
        char *at = buf_.get() + len_;
        len_ += static_cast<std::size_t>(
            std::to_chars(at, buf_.get() + kChromeFlushBytes, v).ptr - at);
    }

    void boolean(bool v) { v ? lit("true") : lit("false"); }

    /** Each event starts a new line of the traceEvents array. */
    void
    beginEvent()
    {
        first_ ? lit("\n") : lit(",\n");
        first_ = false;
    }

    void
    flush()
    {
        os_.write(buf_.get(), static_cast<std::streamsize>(len_));
        len_ = 0;
    }

  private:
    void
    put(const char *s, std::size_t n)
    {
        if (n > kChromeFlushBytes - len_) {
            flush();
            if (n > kChromeFlushBytes) {
                os_.write(s, static_cast<std::streamsize>(n));
                return;
            }
        }
        std::memcpy(buf_.get() + len_, s, n);
        len_ += n;
    }

    std::ostream &os_;
    std::unique_ptr<char[]> buf_;
    std::size_t len_ = 0;
    bool first_ = true;
};

void
metadataEvent(ChromeOut &out, std::string_view name, u32 pid, u32 tid,
              std::string_view arg_value)
{
    out.beginEvent();
    out.lit("{\"name\":");
    out.quoted(name);
    out.lit(",\"ph\":\"M\",\"pid\":");
    out.num(pid);
    out.lit(",\"tid\":");
    out.num(tid);
    out.lit(",\"args\":{\"name\":");
    out.quoted(arg_value);
    out.lit("}}");
}

void
completeEvent(ChromeOut &out, std::string_view name, u32 pid, u32 tid,
              Cycle start, Cycle end)
{
    out.beginEvent();
    out.lit("{\"name\":");
    out.quoted(name);
    out.lit(",\"ph\":\"X\",\"ts\":");
    out.num(start);
    out.lit(",\"dur\":");
    out.num(end > start ? end - start : 0);
    out.lit(",\"pid\":");
    out.num(pid);
    out.lit(",\"tid\":");
    out.num(tid);
    out.lit("}");
}

void
counterEvent(ChromeOut &out, std::string_view name, Cycle ts,
             std::string_view value_key, double value)
{
    out.beginEvent();
    out.lit("{\"name\":");
    out.quoted(name);
    out.lit(",\"ph\":\"C\",\"ts\":");
    out.num(ts);
    out.lit(",\"pid\":0,\"tid\":0,\"args\":{");
    out.quoted(value_key);
    out.lit(":");
    out.str(JsonWriter::formatDouble(value));
    out.lit("}}");
}

/** Per-kind members of an instant event's args object. */
void
eventArgs(ChromeOut &out, const TraceEvent &ev)
{
    switch (ev.kind) {
      case TraceEventKind::WarpIssue:
        out.lit("\"pc\":");
        out.num(ev.a);
        out.lit(",\"lanes\":");
        out.num(ev.b);
        break;
      case TraceEventKind::DummyMov:
        out.lit("\"dst\":");
        out.num(ev.a);
        break;
      case TraceEventKind::CompressDecision:
        out.lit("\"achieved_bytes\":");
        out.num(ev.a);
        out.lit(",\"stored_bytes\":");
        out.num(ev.b);
        out.lit(",\"reg\":");
        out.num(ev.c);
        break;
      case TraceEventKind::OperandCollect:
        out.lit("\"ops\":");
        out.num(ev.a);
        out.lit(",\"compressed_srcs\":");
        out.num(ev.b);
        break;
      case TraceEventKind::Writeback:
        out.lit("\"banks\":");
        out.num(ev.a);
        out.lit(",\"compressed\":");
        out.boolean(ev.b != 0);
        break;
      case TraceEventKind::SeuCorruption:
        out.lit("\"lanes\":");
        out.num(ev.a);
        out.lit(",\"amplified\":");
        out.boolean(ev.b != 0);
        break;
      case TraceEventKind::ScrubVisit:
        out.lit("\"banks\":");
        out.num(ev.a);
        break;
      case TraceEventKind::BankConflict:
        out.lit("\"warp\":");
        out.num(ev.a);
        break;
      default:
        break;
    }
}

/**
 * Dense ids, in first-seen order, for the distinct lanes of a trace. A
 * lane key sorts warp lanes before bank lanes, each by (sm, lane). The
 * index is a hash map, so it grows with the number of distinct lanes,
 * never with the largest sm or lane id an (untrusted) dump carries.
 */
class LaneIndex
{
  public:
    static u64
    keyOf(const TraceEvent &ev)
    {
        return (u64{isBankLaneEvent(ev.kind)} << 32) |
               (u64{ev.sm} << 16) | ev.lane;
    }
    static bool isBankKey(u64 key) { return (key >> 32) != 0; }
    static u16 smOf(u64 key) { return static_cast<u16>(key >> 16); }
    static u16 laneOf(u64 key) { return static_cast<u16>(key); }

    /** Id of @p key, assigning the next one on first sight. Runs of
     *  events on one lane skip the map. */
    u32
    intern(u64 key)
    {
        if (key == lastKey_)
            return lastId_;
        const auto [it, fresh] =
            ids_.try_emplace(key, static_cast<u32>(keys_.size()));
        if (fresh)
            keys_.push_back(key);
        lastKey_ = key;
        lastId_ = it->second;
        return it->second;
    }

    /** Keys by id. */
    const std::vector<u64> &keys() const { return keys_; }

  private:
    std::unordered_map<u64, u32> ids_;
    std::vector<u64> keys_;
    u64 lastKey_ = ~u64{0};   // no lane key has the top bits set
    u32 lastId_ = 0;
};

} // namespace

void
writeChromeTrace(std::ostream &os, const ChromeTraceView &view,
                 const ChromeTraceMeta &meta)
{
    const std::vector<TraceEvent> &events = view.events;
    // Gate intervals are clamped to the traced window; a wake with no
    // recorded gate-off means the bank was gated since before the
    // window opened (banks reset gated in the compressed design).
    const Cycle window_start = view.traceStart;
    const Cycle window_end =
        std::min<Cycle>(meta.cycles, view.traceEnd);

    // Pass 1: lanes present, so every lane gets a stable name.
    LaneIndex lanes;
    for (const TraceEvent &ev : events)
        lanes.intern(LaneIndex::keyOf(ev));
    // (key, id) in key order: warp lanes, then bank lanes.
    std::vector<std::pair<u64, u32>> sorted;
    sorted.reserve(lanes.keys().size());
    for (u32 id = 0; id < lanes.keys().size(); ++id)
        sorted.emplace_back(lanes.keys()[id], id);
    std::sort(sorted.begin(), sorted.end());
    std::vector<u16> sms;
    for (const auto &[key, id] : sorted)
        sms.push_back(LaneIndex::smOf(key));
    std::sort(sms.begin(), sms.end());
    sms.erase(std::unique(sms.begin(), sms.end()), sms.end());

    ChromeOut out(os);
    out.lit("{\"otherData\":{\"workload\":");
    out.quoted(meta.workload);
    out.lit(",\"config\":");
    out.quoted(meta.config);
    out.lit(",\"sms\":");
    out.num(meta.numSms);
    out.lit(",\"banks\":");
    out.num(meta.numBanks);
    out.lit(",\"cycles\":");
    out.num(meta.cycles);
    out.lit(",\"trace_start\":");
    out.num(window_start);
    out.lit(",\"trace_end\":");
    out.num(window_end);
    out.lit(",\"events_recorded\":");
    out.num(events.size());
    out.lit(",\"events_dropped\":");
    out.num(view.dropped);
    out.lit(",\"window_interval\":");
    out.num(view.windowInterval);
    out.lit(",\"timestamp_unit\":\"cycle\"},\"traceEvents\":[");

    // Lane metadata. Bank lanes sort after warp lanes via their tid
    // offset; sort indices make Perfetto keep that order.
    if (!view.windows.empty())
        metadataEvent(out, "process_name", 0, 0, "GPU");
    for (u16 sm : sms) {
        metadataEvent(out, "process_name", pidOfSm(sm), 0,
                      "SM" + std::to_string(sm));
    }
    for (const auto &[key, id] : sorted) {
        const u16 lane = LaneIndex::laneOf(key);
        if (LaneIndex::isBankKey(key)) {
            metadataEvent(out, "thread_name", pidOfSm(LaneIndex::smOf(key)),
                          kBankLaneBase + lane,
                          "bank " + std::to_string(lane));
        } else {
            metadataEvent(out, "thread_name", pidOfSm(LaneIndex::smOf(key)),
                          lane, "warp " + std::to_string(lane));
        }
    }

    // Instant-event prefixes up to the "ts" value, one per kind.
    std::array<std::string, kNumTraceEventKinds> instant_prefix;
    for (u32 k = 0; k < kNumTraceEventKinds; ++k) {
        instant_prefix[k] =
            "{\"name\":\"" +
            JsonWriter::escape(
                traceEventName(static_cast<TraceEventKind>(k))) +
            "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    }

    // Pass 2: events in chronological order. Gate-off/wake pairs fold
    // into "gated" intervals on the bank lane (plus a short "waking"
    // interval covering the wakeup latency); everything else is an
    // instant event.
    std::vector<std::optional<Cycle>> open_off(lanes.keys().size());
    for (const TraceEvent &ev : events) {
        const u32 pid = pidOfSm(ev.sm);
        if (ev.kind == TraceEventKind::GateOff) {
            open_off[lanes.intern(LaneIndex::keyOf(ev))] = ev.cycle;
            continue;
        }
        if (ev.kind == TraceEventKind::GateWake) {
            std::optional<Cycle> &off =
                open_off[lanes.intern(LaneIndex::keyOf(ev))];
            completeEvent(out, "gated", pid, kBankLaneBase + ev.lane,
                          off.value_or(window_start), ev.cycle);
            off.reset();
            completeEvent(out, "waking", pid, kBankLaneBase + ev.lane,
                          ev.cycle, ev.cycle + ev.a);
            continue;
        }

        const auto kind = static_cast<u32>(ev.kind);
        WC_ASSERT(kind < kNumTraceEventKinds,
                  "unknown trace event kind " << kind);
        out.beginEvent();
        out.str(instant_prefix[kind]);
        out.num(ev.cycle);
        out.lit(",\"pid\":");
        out.num(pid);
        out.lit(",\"tid\":");
        out.num(tidOf(ev));
        out.lit(",\"args\":{");
        eventArgs(out, ev);
        out.lit("}}");
    }
    // Banks still gated when the run (or the traced window) ended.
    for (const auto &[key, id] : sorted) {
        if (open_off[id].has_value()) {
            completeEvent(out, "gated", pidOfSm(LaneIndex::smOf(key)),
                          kBankLaneBase + LaneIndex::laneOf(key),
                          *open_off[id], window_end);
        }
    }

    // GPU-wide counter tracks from the windowed timelines.
    for (std::size_t i = 0; i < view.windows.size(); ++i) {
        const WindowRow &r = view.windows[i];
        const Cycle ts = static_cast<Cycle>(i) * view.windowInterval;
        const double cycles_in_window = meta.numSms > 0
            ? static_cast<double>(r.smCycles) /
                static_cast<double>(meta.numSms)
            : 0.0;
        counterEvent(out, "ipc", ts, "ipc",
                     cycles_in_window > 0.0
                         ? static_cast<double>(r.issued) /
                               cycles_in_window
                         : 0.0);
        counterEvent(out, "compression_ratio", ts, "ratio",
                     r.storedBytes > 0
                         ? static_cast<double>(r.rawBytes) /
                               static_cast<double>(r.storedBytes)
                         : 0.0);
        counterEvent(out, "gated_banks", ts, "banks",
                     r.smCycles > 0
                         ? static_cast<double>(r.gatedBankCycles) /
                               static_cast<double>(r.smCycles)
                         : 0.0);
    }

    out.lit("\n]}\n");
    out.flush();
}

void
writeChromeTrace(std::ostream &os, const ObsRun &obs,
                 const ChromeTraceMeta &meta)
{
    const TraceRing &ring = obs.ring();
    std::vector<TraceEvent> events;
    events.reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i)
        events.push_back(ring.at(i));
    const ChromeTraceView view{events,
                               obs.windows().rows(),
                               obs.windows().interval(),
                               obs.params().traceStart,
                               obs.params().traceEnd,
                               ring.dropped()};
    writeChromeTrace(os, view, meta);
}

} // namespace warpcomp
