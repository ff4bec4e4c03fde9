#include "compress/bdi.hpp"

#include <cstring>

#include "common/bitops.hpp"
#include "common/log.hpp"

namespace warpcomp {

namespace {

/** Load a little-endian chunk of 1/2/4/8 bytes as a signed value. */
i64
loadChunk(std::span<const u8> data, u32 index, u32 chunk_bytes)
{
    u64 raw = 0;
    std::memcpy(&raw, data.data() + index * chunk_bytes, chunk_bytes);
    // Sign-extend from chunk_bytes * 8 bits.
    const u32 bits = chunk_bytes * 8;
    if (bits < 64) {
        const u64 sign = u64{1} << (bits - 1);
        raw = (raw ^ sign) - sign;
    }
    return static_cast<i64>(raw);
}

/**
 * @p value - @p base modulo 2^64, read back as signed. Far-apart 8-byte
 * chunks overflow an i64 subtraction; the decoder adds the delta back
 * modulo 2^64 as well, so the wrapped delta round-trips exactly.
 */
i64
deltaFrom(i64 value, i64 base)
{
    return static_cast<i64>(static_cast<u64>(value) -
                            static_cast<u64>(base));
}

/** Store the low @p bytes bytes of @p value little-endian. */
void
storeBytes(BdiByteBuf &out, i64 value, u32 bytes)
{
    u64 raw = static_cast<u64>(value);
    for (u32 i = 0; i < bytes; ++i) {
        out.push_back(static_cast<u8>(raw & 0xFF));
        raw >>= 8;
    }
}

/** Sign-extend @p bytes little-endian bytes at @p p. */
i64
loadSigned(const u8 *p, u32 bytes)
{
    u64 raw = 0;
    std::memcpy(&raw, p, bytes);
    const u32 bits = bytes * 8;
    if (bits < 64) {
        const u64 sign = u64{1} << (bits - 1);
        raw = (raw ^ sign) - sign;
    }
    return static_cast<i64>(raw);
}

/**
 * Delta-width feasibility for one base size, answered by a single pass.
 * The fits are nested (zero ⊂ 1B ⊂ 2B ⊂ 4B), so one scan of the data
 * answers every candidate sharing the base size; bdiCompress uses this
 * to avoid re-walking the 128-byte image once per candidate.
 */
struct DeltaFits
{
    bool zero = true;
    bool one = true;
    bool two = true;
    bool four = true;

    bool
    fits(u32 delta_bytes) const
    {
        switch (delta_bytes) {
          case 0: return zero;
          case 1: return one;
          case 2: return two;
          case 4: return four;
          default: WC_PANIC("unscanned delta width " << delta_bytes);
        }
    }
};

DeltaFits
scanDeltas(std::span<const u8> data, u32 base_bytes)
{
    DeltaFits f;
    const u32 chunks = static_cast<u32>(data.size()) / base_bytes;
    const i64 base = loadChunk(data, 0, base_bytes);
    for (u32 i = 1; i < chunks; ++i) {
        const i64 d = deltaFrom(loadChunk(data, i, base_bytes), base);
        f.zero = f.zero && d == 0;
        f.one = f.one && fitsSigned(d, 1);
        f.two = f.two && fitsSigned(d, 2);
        if (!fitsSigned(d, 4)) {
            // Nested ranges: nothing narrower can fit either.
            f = {false, false, false, false};
            break;
        }
    }
    return f;
}

/**
 * Base-4 fast path over the 32 contiguous u32 lanes of a warp
 * register: fixed trip count, no data-dependent exits, mask
 * accumulators instead of short-circuit booleans — straight-line code
 * the compiler can auto-vectorize. Deltas are computed in i64 (a u32
 * subtraction would wrap for e.g. an INT32_MIN base against an
 * INT32_MAX lane). Equivalent to scanDeltas(data, 4): the early break
 * there only skips deltas once every fit is already dead.
 */
DeltaFits
scanDeltas4(std::span<const u8> data)
{
    u32 lanes[kWarpSize];
    std::memcpy(lanes, data.data(), kWarpRegBytes);
    const i64 base = static_cast<i32>(lanes[0]);
    u64 nonzero = 0;
    u32 bad1 = 0, bad2 = 0, bad4 = 0;
    for (u32 i = 1; i < kWarpSize; ++i) {
        const i64 d = static_cast<i32>(lanes[i]) - base;
        nonzero |= static_cast<u64>(d);
        bad1 |= static_cast<u32>(!fitsSigned(d, 1));
        bad2 |= static_cast<u32>(!fitsSigned(d, 2));
        bad4 |= static_cast<u32>(!fitsSigned(d, 4));
    }
    DeltaFits f;
    f.zero = nonzero == 0;
    f.one = bad1 == 0;
    f.two = bad2 == 0;
    f.four = bad4 == 0;
    return f;
}

/** Encode the base-4 candidates (<4,0> <4,1> <4,2>) with one flat pass
 *  writing the payload in place. Byte-identical to the generic
 *  storeBytes loop: deltas store their low little-endian bytes. */
void
encodeBase4(std::span<const u8> data, u32 delta_bytes, BdiByteBuf &out)
{
    u32 lanes[kWarpSize];
    std::memcpy(lanes, data.data(), kWarpRegBytes);
    const i64 base = static_cast<i32>(lanes[0]);
    out.resize(4 + delta_bytes * (kWarpSize - 1));
    u8 *p = out.data();
    std::memcpy(p, &lanes[0], 4);
    p += 4;
    if (delta_bytes == 1) {
        for (u32 i = 1; i < kWarpSize; ++i)
            p[i - 1] = static_cast<u8>(
                static_cast<i32>(lanes[i]) - base);
    } else if (delta_bytes == 2) {
        for (u32 i = 1; i < kWarpSize; ++i) {
            const u16 d = static_cast<u16>(
                static_cast<i32>(lanes[i]) - base);
            std::memcpy(p + 2 * (i - 1), &d, 2);
        }
    }
}

/** Decode a base-4 encoding into the 128-byte image with flat loops. */
void
decodeBase4(const BdiEncoded &enc, std::array<u8, kWarpRegBytes> &out)
{
    u32 lanes[kWarpSize];
    u32 base_raw = 0;
    std::memcpy(&base_raw, enc.bytes.data(), 4);
    const i64 base = static_cast<i32>(base_raw);
    lanes[0] = base_raw;
    const u8 *d = enc.bytes.data() + 4;
    switch (enc.params.deltaBytes) {
      case 0:
        for (u32 i = 1; i < kWarpSize; ++i)
            lanes[i] = base_raw;
        break;
      case 1:
        for (u32 i = 1; i < kWarpSize; ++i)
            lanes[i] = static_cast<u32>(
                base + static_cast<i8>(d[i - 1]));
        break;
      case 2:
        for (u32 i = 1; i < kWarpSize; ++i) {
            u16 raw = 0;
            std::memcpy(&raw, d + 2 * (i - 1), 2);
            lanes[i] = static_cast<u32>(
                base + static_cast<i16>(raw));
        }
        break;
      default:
        WC_PANIC("unsupported base-4 delta width "
                 << enc.params.deltaBytes);
    }
    std::memcpy(out.data(), lanes, kWarpRegBytes);
}

constexpr BdiParams kFullCandidates[] = {
    {4, 0}, {4, 1}, {4, 2}, {8, 0}, {8, 1}, {8, 2}, {8, 4},
};

constexpr BdiParams kWarpedCandidates[] = {
    {4, 0}, {4, 1}, {4, 2},
};

} // namespace

std::span<const BdiParams>
fullBdiCandidates()
{
    return kFullCandidates;
}

std::span<const BdiParams>
warpedCandidates()
{
    return kWarpedCandidates;
}

std::array<u8, kWarpRegBytes>
toBytes(const WarpRegValue &value)
{
    std::array<u8, kWarpRegBytes> out{};
    std::memcpy(out.data(), value.data(), kWarpRegBytes);
    return out;
}

WarpRegValue
fromBytes(std::span<const u8> bytes)
{
    WC_ASSERT(bytes.size() == kWarpRegBytes, "warp register image must be "
              << kWarpRegBytes << " bytes, got " << bytes.size());
    WarpRegValue v{};
    std::memcpy(v.data(), bytes.data(), kWarpRegBytes);
    return v;
}

bool
bdiCompressible(std::span<const u8> data, BdiParams params)
{
    WC_ASSERT(data.size() % params.baseBytes == 0,
              "data not a multiple of the chunk size");
    WC_ASSERT(params.baseBytes == 1 || params.baseBytes == 2 ||
              params.baseBytes == 4 || params.baseBytes == 8,
              "unsupported base size " << params.baseBytes);
    WC_ASSERT(params.deltaBytes < params.baseBytes,
              "delta must be narrower than the base");

    const u32 chunks = static_cast<u32>(data.size()) / params.baseBytes;
    const i64 base = loadChunk(data, 0, params.baseBytes);
    for (u32 i = 1; i < chunks; ++i) {
        const i64 delta =
            deltaFrom(loadChunk(data, i, params.baseBytes), base);
        if (params.deltaBytes == 0) {
            if (delta != 0)
                return false;
        } else if (!fitsSigned(delta, params.deltaBytes)) {
            return false;
        }
    }
    return true;
}

BdiEncoded
bdiCompress(std::span<const u8> data, std::span<const BdiParams> candidates)
{
    WC_ASSERT(data.size() == kWarpRegBytes,
              "register compression operates on 128-byte warp registers");

    const BdiParams *best = nullptr;
    u32 best_size = kWarpRegBytes;
    // Lazy one scan per base size; candidates sharing a base reuse it.
    std::optional<DeltaFits> fits4, fits8;
    for (const BdiParams &p : candidates) {
        const u32 size = bdiCompressedSize(p);
        if (size >= best_size)
            continue;
        bool ok;
        const bool scannable =
            p.deltaBytes == 0 || p.deltaBytes == 1 ||
            p.deltaBytes == 2 || p.deltaBytes == 4;
        if (p.baseBytes == 4 && scannable) {
            if (!fits4)
                fits4 = scanDeltas4(data);
            ok = fits4->fits(p.deltaBytes);
        } else if (p.baseBytes == 8 && scannable) {
            if (!fits8)
                fits8 = scanDeltas(data, 8);
            ok = fits8->fits(p.deltaBytes);
        } else {
            ok = bdiCompressible(data, p);
        }
        if (ok) {
            best = &p;
            best_size = size;
        }
    }

    BdiEncoded enc;
    if (best == nullptr) {
        enc.compressed = false;
        enc.bytes.assign(data);
        return enc;
    }

    enc.compressed = true;
    enc.params = *best;
    if (best->baseBytes == 4 && best->deltaBytes <= 2) {
        // The warped candidates (<4,0> <4,1> <4,2>) take the flat
        // lane-wise path over the contiguous 32x4B image.
        encodeBase4(data, best->deltaBytes, enc.bytes);
        WC_ASSERT(enc.bytes.size() == best_size,
                  "compressed size mismatch");
        return enc;
    }
    const u32 chunks = kWarpRegBytes / best->baseBytes;
    const i64 base = loadChunk(data, 0, best->baseBytes);
    storeBytes(enc.bytes, base, best->baseBytes);
    for (u32 i = 1; i < chunks; ++i) {
        const i64 delta =
            deltaFrom(loadChunk(data, i, best->baseBytes), base);
        storeBytes(enc.bytes, delta, best->deltaBytes);
    }
    WC_ASSERT(enc.bytes.size() == best_size, "compressed size mismatch");
    return enc;
}

std::array<u8, kWarpRegBytes>
bdiDecompress(const BdiEncoded &enc)
{
    std::array<u8, kWarpRegBytes> out{};
    if (!enc.compressed) {
        WC_ASSERT(enc.bytes.size() == kWarpRegBytes,
                  "uncompressed payload must be 128 bytes");
        std::memcpy(out.data(), enc.bytes.data(), kWarpRegBytes);
        return out;
    }

    const BdiParams p = enc.params;
    if (p.baseBytes == 4 && p.deltaBytes <= 2) {
        decodeBase4(enc, out);
        return out;
    }
    const u32 chunks = kWarpRegBytes / p.baseBytes;
    const i64 base = loadSigned(enc.bytes.data(), p.baseBytes);
    // Base chunk.
    u64 raw = static_cast<u64>(base);
    std::memcpy(out.data(), &raw, p.baseBytes);
    // Delta chunks.
    for (u32 i = 1; i < chunks; ++i) {
        i64 delta = 0;
        if (p.deltaBytes > 0) {
            delta = loadSigned(enc.bytes.data() + p.baseBytes +
                               (i - 1) * p.deltaBytes, p.deltaBytes);
        }
        raw = static_cast<u64>(base) + static_cast<u64>(delta);
        std::memcpy(out.data() + i * p.baseBytes, &raw, p.baseBytes);
    }
    return out;
}

std::optional<BdiParams>
bdiBestParams(std::span<const u8> data, std::span<const BdiParams> candidates)
{
    const BdiParams *best = nullptr;
    u32 best_size = ~0u;
    for (const BdiParams &p : candidates) {
        const u32 size = bdiCompressedSize(
            p, static_cast<u32>(data.size()));
        if (size < best_size && size < data.size() &&
            bdiCompressible(data, p)) {
            best = &p;
            best_size = size;
        }
    }
    if (best == nullptr)
        return std::nullopt;
    return *best;
}

} // namespace warpcomp
