/**
 * @file
 * Unit and property tests for the BDI codec: Table 1 size formula,
 * compressibility predicates, roundtrip over random and structured
 * data, and the best-parameter explorer behind Fig 5.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "compress/bdi.hpp"

namespace warpcomp {
namespace {

WarpRegValue
makeValue(u32 base, i64 stride)
{
    WarpRegValue v{};
    for (u32 i = 0; i < kWarpSize; ++i)
        v[i] = static_cast<u32>(static_cast<i64>(base) + stride * i);
    return v;
}

TEST(BdiSize, Table1Formula)
{
    // The "Comp. Size" column of Table 1.
    EXPECT_EQ(bdiCompressedSize({1, 0}), 1u);
    EXPECT_EQ(bdiCompressedSize({2, 1}), 65u);
    EXPECT_EQ(bdiCompressedSize({4, 0}), 4u);
    EXPECT_EQ(bdiCompressedSize({4, 1}), 35u);
    EXPECT_EQ(bdiCompressedSize({4, 2}), 66u);
    EXPECT_EQ(bdiCompressedSize({8, 0}), 8u);
    EXPECT_EQ(bdiCompressedSize({8, 1}), 23u);
    EXPECT_EQ(bdiCompressedSize({8, 2}), 38u);
    EXPECT_EQ(bdiCompressedSize({8, 4}), 68u);
}

TEST(BdiSize, Table1BankCounts)
{
    // The "Required # Reg. Banks" column of Table 1.
    EXPECT_EQ(banksForBytes(bdiCompressedSize({1, 0})), 1u);
    EXPECT_EQ(banksForBytes(bdiCompressedSize({2, 1})), 5u);
    EXPECT_EQ(banksForBytes(bdiCompressedSize({4, 0})), 1u);
    EXPECT_EQ(banksForBytes(bdiCompressedSize({4, 1})), 3u);
    EXPECT_EQ(banksForBytes(bdiCompressedSize({4, 2})), 5u);
    EXPECT_EQ(banksForBytes(bdiCompressedSize({8, 0})), 1u);
    EXPECT_EQ(banksForBytes(bdiCompressedSize({8, 1})), 2u);
    EXPECT_EQ(banksForBytes(bdiCompressedSize({8, 2})), 3u);
    EXPECT_EQ(banksForBytes(bdiCompressedSize({8, 4})), 5u);
}

TEST(BdiSize, BanksForBytesBoundaries)
{
    EXPECT_EQ(banksForBytes(1), 1u);
    EXPECT_EQ(banksForBytes(16), 1u);
    EXPECT_EQ(banksForBytes(17), 2u);
    EXPECT_EQ(banksForBytes(128), 8u);
}

TEST(BdiCompressible, AllIdentical)
{
    const auto img = toBytes(makeValue(0xDEADBEEF, 0));
    EXPECT_TRUE(bdiCompressible(img, {4, 0}));
    EXPECT_TRUE(bdiCompressible(img, {4, 1}));
    EXPECT_TRUE(bdiCompressible(img, {4, 2}));
}

TEST(BdiCompressible, UnitStride)
{
    // Thread-index-like values: base + lane.
    const auto img = toBytes(makeValue(1000, 1));
    EXPECT_FALSE(bdiCompressible(img, {4, 0}));
    EXPECT_TRUE(bdiCompressible(img, {4, 1}));
    EXPECT_TRUE(bdiCompressible(img, {4, 2}));
}

TEST(BdiCompressible, ByteDeltaBoundary)
{
    // Max positive 1-byte delta is +127.
    auto v = makeValue(0, 0);
    v[31] = 127;
    EXPECT_TRUE(bdiCompressible(toBytes(v), {4, 1}));
    v[31] = 128;
    EXPECT_FALSE(bdiCompressible(toBytes(v), {4, 1}));
    EXPECT_TRUE(bdiCompressible(toBytes(v), {4, 2}));
}

TEST(BdiCompressible, NegativeDeltaBoundary)
{
    auto v = makeValue(1000, 0);
    v[5] = 1000 - 128;          // -128 fits in one signed byte
    EXPECT_TRUE(bdiCompressible(toBytes(v), {4, 1}));
    v[5] = 1000 - 129;
    EXPECT_FALSE(bdiCompressible(toBytes(v), {4, 1}));
}

TEST(BdiCompressible, TwoByteDeltaBoundary)
{
    auto v = makeValue(0, 0);
    v[7] = 32767;
    EXPECT_TRUE(bdiCompressible(toBytes(v), {4, 2}));
    v[7] = 32768;
    EXPECT_FALSE(bdiCompressible(toBytes(v), {4, 2}));
}

TEST(BdiCompressible, BaseIsFirstChunkNotMinimum)
{
    // Deltas are measured against chunk 0, not the smallest chunk:
    // with base 500 and all other chunks 700 the delta is +200, which
    // does not fit one signed byte even though the spread is only 200.
    auto v = makeValue(0, 0);
    v[0] = 500;
    for (u32 i = 1; i < kWarpSize; ++i)
        v[i] = 700;
    EXPECT_FALSE(bdiCompressible(toBytes(v), {4, 1}));
    EXPECT_TRUE(bdiCompressible(toBytes(v), {4, 2}));
}

TEST(BdiCompress, PicksSmallestFit)
{
    const auto img = toBytes(makeValue(42, 0));
    const BdiEncoded enc = bdiCompress(img, warpedCandidates());
    ASSERT_TRUE(enc.compressed);
    EXPECT_EQ(enc.params, (BdiParams{4, 0}));
    EXPECT_EQ(enc.sizeBytes(), 4u);
    EXPECT_EQ(enc.banks(), 1u);
}

TEST(BdiCompress, FallsBackToUncompressed)
{
    WarpRegValue v{};
    Rng rng(7);
    for (u32 i = 0; i < kWarpSize; ++i)
        v[i] = static_cast<u32>(rng.next());
    const BdiEncoded enc = bdiCompress(toBytes(v), warpedCandidates());
    EXPECT_FALSE(enc.compressed);
    EXPECT_EQ(enc.sizeBytes(), kWarpRegBytes);
    EXPECT_EQ(enc.banks(), kBanksPerWarpReg);
}

TEST(BdiRoundtrip, Identical)
{
    const auto img = toBytes(makeValue(0x12345678, 0));
    const BdiEncoded enc = bdiCompress(img, warpedCandidates());
    EXPECT_EQ(bdiDecompress(enc), img);
}

TEST(BdiRoundtrip, UnitStride)
{
    const auto img = toBytes(makeValue(0x80000000u, 1));
    const BdiEncoded enc = bdiCompress(img, warpedCandidates());
    ASSERT_TRUE(enc.compressed);
    EXPECT_EQ(bdiDecompress(enc), img);
}

TEST(BdiRoundtrip, Uncompressed)
{
    WarpRegValue v{};
    Rng rng(99);
    for (u32 i = 0; i < kWarpSize; ++i)
        v[i] = static_cast<u32>(rng.next());
    const auto img = toBytes(v);
    const BdiEncoded enc = bdiCompress(img, warpedCandidates());
    EXPECT_EQ(bdiDecompress(enc), img);
}

TEST(BdiBestParams, PrefersSmallest)
{
    const auto img = toBytes(makeValue(7, 0));
    const auto best = bdiBestParams(img, fullBdiCandidates());
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(*best, (BdiParams{4, 0}));
}

TEST(BdiBestParams, NoneWhenRandom)
{
    WarpRegValue v{};
    Rng rng(3);
    for (u32 i = 0; i < kWarpSize; ++i)
        v[i] = static_cast<u32>(rng.next());
    EXPECT_FALSE(bdiBestParams(toBytes(v), fullBdiCandidates())
                     .has_value());
}

TEST(BdiBestParams, EightByteBaseCanWin)
{
    // Pairs of lanes forming identical 8-byte chunks compress under
    // <8,0> (8 bytes) but not under any 4-byte-base choice as cheaply.
    WarpRegValue v{};
    for (u32 i = 0; i < kWarpSize; i += 2) {
        v[i] = 0xAAAA0000u;
        v[i + 1] = 0x1234BEEFu;
    }
    const auto best = bdiBestParams(toBytes(v), fullBdiCandidates());
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(*best, (BdiParams{8, 0}));
}

TEST(BdiCompress, WarpedSubsetNeverUsesEightByteBase)
{
    for (const BdiParams &p : warpedCandidates())
        EXPECT_EQ(p.baseBytes, 4u);
    EXPECT_EQ(warpedCandidates().size(), 3u);
    EXPECT_EQ(fullBdiCandidates().size(), 7u);
}

/** Property sweep: roundtrip fidelity over structured value families. */
class BdiRoundtripSweep
    : public ::testing::TestWithParam<std::tuple<u32, i64>>
{
};

TEST_P(BdiRoundtripSweep, RoundtripsExactly)
{
    const auto [base, stride] = GetParam();
    const auto img = toBytes(makeValue(base, stride));
    for (auto cands : {warpedCandidates(), fullBdiCandidates()}) {
        const BdiEncoded enc = bdiCompress(img, cands);
        EXPECT_EQ(bdiDecompress(enc), img);
        // Compressed representation must actually be smaller.
        if (enc.compressed) {
            EXPECT_LT(enc.sizeBytes(), kWarpRegBytes);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Structured, BdiRoundtripSweep,
    ::testing::Combine(
        ::testing::Values(0u, 1u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu,
                          12345u),
        ::testing::Values(i64{0}, i64{1}, i64{-1}, i64{4}, i64{100},
                          i64{127}, i64{128}, i64{-128}, i64{1000},
                          i64{32768}, i64{-100000})));

/** Property sweep: random data roundtrips under every candidate set. */
class BdiRandomRoundtrip : public ::testing::TestWithParam<u64>
{
};

TEST_P(BdiRandomRoundtrip, Roundtrips)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 50; ++iter) {
        WarpRegValue v{};
        // Mix of narrow and wide ranges to hit every compression class.
        const u32 span_bits = 1 + rng.nextU32(32);
        const u64 mask = span_bits >= 64 ? ~u64{0}
                                         : ((u64{1} << span_bits) - 1);
        const u32 base = static_cast<u32>(rng.next());
        for (u32 i = 0; i < kWarpSize; ++i)
            v[i] = base + static_cast<u32>(rng.next() & mask);
        const auto img = toBytes(v);
        const BdiEncoded enc = bdiCompress(img, fullBdiCandidates());
        EXPECT_EQ(bdiDecompress(enc), img);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BdiRandomRoundtrip,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u, 55u, 89u));

TEST(BdiCompress, WideDeltaWraparoundExtremes)
{
    // Base INT32_MIN, other lanes INT32_MAX: the lane delta is
    // 2^32 - 1 in i64, which u32 arithmetic would wrap to -1 and
    // wrongly classify as a 1-byte delta.
    WarpRegValue v{};
    v[0] = 0x80000000u;
    for (u32 i = 1; i < kWarpSize; ++i)
        v[i] = 0x7FFFFFFFu;
    const auto img = toBytes(v);
    EXPECT_FALSE(bdiCompressible(img, BdiParams{4, 1}));
    EXPECT_FALSE(bdiCompressible(img, BdiParams{4, 2}));
    const BdiEncoded enc = bdiCompress(img, warpedCandidates());
    EXPECT_FALSE(enc.compressed);
    EXPECT_EQ(bdiDecompress(enc), img);
}

/** 128-byte image of alternating 8-byte chunks @p even, @p odd. */
std::array<u8, kWarpRegBytes>
eightByteChunks(i64 even, i64 odd)
{
    std::array<u8, kWarpRegBytes> img{};
    for (u32 c = 0; c < kWarpRegBytes / 8; ++c) {
        const i64 chunk = c % 2 == 0 ? even : odd;
        std::memcpy(img.data() + 8 * c, &chunk, 8);
    }
    return img;
}

TEST(BdiCompress, FarApartEightByteChunksRoundtrip)
{
    // Values UBSan reported in the random round-trip sweep: the delta
    // against the base overflows i64. Deltas are taken modulo 2^64;
    // this one fits no width.
    const auto img =
        eightByteChunks(-4934718135544036792, 4533524145188941008);
    for (u32 delta : {0u, 1u, 2u, 4u})
        EXPECT_FALSE(bdiCompressible(img, BdiParams{8, delta}));
    const BdiEncoded enc = bdiCompress(img, fullBdiCandidates());
    EXPECT_FALSE(enc.compressed);
    EXPECT_EQ(bdiDecompress(enc), img);
}

TEST(BdiCompress, EightByteDeltaWrapsModulo64)
{
    // INT64_MIN - INT64_MAX is 1 modulo 2^64, so <8,1> encodes it, and
    // the decoder's base + delta wraps back to INT64_MIN.
    const auto img = eightByteChunks(std::numeric_limits<i64>::max(),
                                     std::numeric_limits<i64>::min());
    const BdiEncoded enc = bdiCompress(img, fullBdiCandidates());
    ASSERT_TRUE(enc.compressed);
    EXPECT_EQ(enc.params, (BdiParams{8, 1}));
    EXPECT_EQ(bdiDecompress(enc), img);
}

TEST(BdiCompress, Base4PayloadLayout)
{
    // Pin the wire format of the base-4 encoder: little-endian base
    // word, then one low-byte two's-complement delta per lane.
    WarpRegValue v{};
    for (u32 i = 0; i < kWarpSize; ++i)
        v[i] = 1000u - 3u * i;
    const BdiEncoded enc = bdiCompress(toBytes(v), warpedCandidates());
    ASSERT_TRUE(enc.compressed);
    EXPECT_EQ(enc.params, (BdiParams{4, 1}));
    ASSERT_EQ(enc.sizeBytes(), 35u);
    u32 base = 0;
    std::memcpy(&base, enc.bytes.data(), 4);
    EXPECT_EQ(base, 1000u);
    for (u32 i = 1; i < kWarpSize; ++i)
        EXPECT_EQ(static_cast<i8>(enc.bytes[4 + i - 1]),
                  static_cast<i8>(-3 * static_cast<i32>(i)));
    EXPECT_EQ(bdiDecompress(enc), toBytes(v));
}

TEST(BdiBytes, ToFromInverse)
{
    WarpRegValue v{};
    for (u32 i = 0; i < kWarpSize; ++i)
        v[i] = i * 0x01010101u;
    EXPECT_EQ(fromBytes(toBytes(v)), v);
}

} // namespace
} // namespace warpcomp
