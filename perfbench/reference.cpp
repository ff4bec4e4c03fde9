#include "reference.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <vector>

namespace perfbench {

using warpcomp::GlobalMemory;
using warpcomp::i32;
using warpcomp::u32;
using warpcomp::u64;
using warpcomp::WorkloadInstance;

namespace {

/** One output buffer: its base address and expected words. */
struct Expected
{
    u64 base = 0;
    std::vector<u32> words;
};

u32
param(const WorkloadInstance &w, u32 index)
{
    return w.cmem->read32(4 * index);
}

u32
word(const WorkloadInstance &w, u64 base, u64 index)
{
    return w.gmem->read32(base + 4 * index);
}

float
f32(const WorkloadInstance &w, u64 base, u64 index)
{
    return w.gmem->readF32(base + 4 * index);
}

i32
asI32(u32 v)
{
    i32 out;
    std::memcpy(&out, &v, sizeof out);
    return out;
}

u32
asU32(i32 v)
{
    u32 out;
    std::memcpy(&out, &v, sizeof out);
    return out;
}

u32
floatBits(float v)
{
    u32 out;
    std::memcpy(&out, &v, sizeof out);
    return out;
}

/** out[i] = max(nw[i] + ref[i], n[i] - penalty, w[i] - penalty). */
Expected
nw(const WorkloadInstance &w)
{
    const u32 ref = param(w, 0), north = param(w, 1), west = param(w, 2),
              nwest = param(w, 3), cells = param(w, 5), pen = param(w, 6);
    Expected e{param(w, 4), std::vector<u32>(cells)};
    for (u32 i = 0; i < cells; ++i) {
        const i32 diag = asI32(word(w, nwest, i) + word(w, ref, i));
        const i32 up = asI32(word(w, north, i) - pen);
        const i32 left = asI32(word(w, west, i) - pen);
        e.words[i] = asU32(std::max({diag, up, left}));
    }
    return e;
}

/** Lifting step: odd samples high-pass, even samples low-pass. */
Expected
dwt2d(const WorkloadInstance &w)
{
    const u32 in = param(w, 0);
    const u32 samples = w.dims.blockDim * w.dims.gridDim;
    Expected e{param(w, 1), std::vector<u32>(samples)};
    for (u32 g = 0; g < samples; ++g) {
        const i32 left = asI32(word(w, in, g));
        const i32 center = asI32(word(w, in, g + 1));
        const i32 right = asI32(word(w, in, g + 2));
        const i32 coeff = (g & 1) != 0 ? center - ((left + right) >> 1)
                                       : center + ((left + right + 2) >> 2);
        e.words[g] = asU32(coeff);
    }
    return e;
}

/** Per CTA: bin t counts the chunk values equal to t. */
Expected
histo(const WorkloadInstance &w)
{
    const u32 data = param(w, 0), chunk = param(w, 2);
    const u32 bins = w.dims.blockDim, grid = w.dims.gridDim;
    Expected e{param(w, 1), std::vector<u32>(bins * grid, 0)};
    for (u32 cta = 0; cta < grid; ++cta) {
        for (u32 i = 0; i < chunk; ++i) {
            const u32 v = word(w, data, u64{cta} * chunk + i);
            if (v < bins)
                ++e.words[cta * bins + v];
        }
    }
    return e;
}

/** Nearest centroid per point; float ops in the kernel's order. */
Expected
kmeans(const WorkloadInstance &w)
{
    const u32 feat = param(w, 0), clu = param(w, 1), ncl = param(w, 3),
              nf = param(w, 4);
    const u32 points = w.dims.blockDim * w.dims.gridDim;
    Expected e{param(w, 2), std::vector<u32>(points)};
    for (u32 p = 0; p < points; ++p) {
        float best = 1.0e30f;
        u32 best_id = 0;
        for (u32 c = 0; c < ncl; ++c) {
            float dist = 0.0f;
            for (u32 f = 0; f < nf; ++f) {
                const float fv = f32(w, feat, u64{p} * nf + f);
                const float cv = f32(w, clu, u64{c} * nf + f);
                const float prod = cv * -1.0f;
                const float diff = prod + fv;
                const float sq = diff * diff;
                dist = sq + dist;
            }
            if (dist < best) {
                best = dist;
                best_id = c;
            }
        }
        e.words[p] = best_id;
    }
    return e;
}

/** C tile per CTA over the first kTiles*16 products, in k order. */
Expected
sgemm(const WorkloadInstance &w)
{
    const u32 a = param(w, 0), b = param(w, 1), n = param(w, 3),
              ktiles = param(w, 4);
    Expected e{param(w, 2), std::vector<u32>(n * n, 0)};
    for (u32 cta = 0; cta < w.dims.gridDim; ++cta) {
        const u32 bx = cta & 7, by = (cta >> 3) & 7;
        for (u32 tid = 0; tid < w.dims.blockDim; ++tid) {
            const u32 row = by * 16 + (tid >> 4);
            const u32 col = bx * 16 + (tid & 15);
            float acc = 0.0f;
            for (u32 k = 0; k < ktiles * 16; ++k) {
                const float prod = f32(w, a, u64{row} * n + k) *
                    f32(w, b, u64{k} * n + col);
                acc = prod + acc;
            }
            e.words[row * n + col] = floatBits(acc);
        }
    }
    return e;
}

/** Rodinia pathfinder: per CTA, `iteration` min-plus steps in smem. */
Expected
pathfinder(const WorkloadInstance &w)
{
    const u32 src = param(w, 0), wall = param(w, 1), cols = param(w, 3),
              iters = param(w, 4), border = param(w, 5), sbc = param(w, 6);
    const u32 block = w.dims.blockDim;
    Expected e{param(w, 2), std::vector<u32>(cols, 0)};
    std::vector<i32> prev(block), result(block), xidx(block);
    std::vector<bool> valid(block), computed(block);
    for (u32 bx = 0; bx < w.dims.gridDim; ++bx) {
        std::fill(prev.begin(), prev.end(), 0);
        std::fill(result.begin(), result.end(), 0);
        std::fill(computed.begin(), computed.end(), false);
        for (u32 tx = 0; tx < block; ++tx) {
            xidx[tx] = asI32(sbc * bx - border + tx);
            valid[tx] = xidx[tx] >= 0 && xidx[tx] <= asI32(cols - 1);
            if (valid[tx])
                prev[tx] = asI32(word(w, src, static_cast<u32>(xidx[tx])));
        }
        for (u32 i = 0; i < iters; ++i) {
            for (u32 tx = 0; tx < block; ++tx) {
                computed[tx] = valid[tx] && tx >= i + 1 &&
                    asI32(tx) <= asI32(block - 2 - i);
                if (!computed[tx])
                    continue;
                const i32 shortest =
                    std::min({prev[tx - 1], prev[tx], prev[tx + 1]});
                result[tx] = shortest + asI32(word(
                    w, wall, u64{cols} * i + static_cast<u32>(xidx[tx])));
            }
            for (u32 tx = 0; tx < block; ++tx)
                if (computed[tx])
                    prev[tx] = result[tx];
        }
        for (u32 tx = 0; tx < block; ++tx)
            if (computed[tx])
                e.words[static_cast<u32>(xidx[tx])] = asU32(result[tx]);
    }
    return e;
}

/** RV32 examples: canonical env, A/B/OUT/n/alpha in the const bank. */
Expected
elementwise(const WorkloadInstance &w, bool saxpy)
{
    const u32 a = param(w, 0), b = param(w, 1), n = param(w, 3),
              alpha = param(w, 4);
    Expected e{param(w, 2), std::vector<u32>(n)};
    for (u32 i = 0; i < n; ++i)
        e.words[i] = (saxpy ? word(w, a, i) * alpha : word(w, a, i)) +
            word(w, b, i);
    return e;
}

Expected
reduction(const WorkloadInstance &w)
{
    const u32 a = param(w, 0), n = param(w, 3);
    const u32 block = w.dims.blockDim;
    Expected e{param(w, 2), std::vector<u32>(w.dims.gridDim, 0)};
    for (u32 cta = 0; cta < w.dims.gridDim; ++cta)
        for (u32 t = 0; t < block; ++t)
            if (cta * block + t < n)
                e.words[cta] += word(w, a, u64{cta} * block + t);
    return e;
}

const std::map<std::string, std::function<Expected(const WorkloadInstance &)>>
    &references()
{
    static const std::map<std::string,
                          std::function<Expected(const WorkloadInstance &)>>
        refs = {
            {"nw", nw},
            {"dwt2d", dwt2d},
            {"histo", histo},
            {"kmeans", kmeans},
            {"sgemm", sgemm},
            {"pathfinder", pathfinder},
            {"vecadd", [](const WorkloadInstance &w) {
                 return elementwise(w, false);
             }},
            {"saxpy", [](const WorkloadInstance &w) {
                 return elementwise(w, true);
             }},
            {"reduction", reduction},
        };
    return refs;
}

} // namespace

bool
hasHostReference(const std::string &kernel)
{
    return references().count(kernel) != 0;
}

std::string
checkHostReference(const WorkloadInstance &inputs, const GlobalMemory &after)
{
    const auto it = references().find(inputs.name);
    if (it == references().end())
        return "";
    const Expected e = it->second(inputs);
    for (std::size_t i = 0; i < e.words.size(); ++i) {
        const u32 got = after.read32(e.base + 4 * i);
        if (got != e.words[i])
            return inputs.name + ": output word " + std::to_string(i) +
                " is " + std::to_string(got) + ", host reference " +
                std::to_string(e.words[i]);
    }
    return "";
}

} // namespace perfbench
