/**
 * @file
 * `suite` workload: the 19 built-in kernels plus the three RV32
 * example kernels, back to back on one thread under the default Warped
 * configuration (15 SMs), then one pass of the public BDI codec over
 * 128-byte register images cut from the kernels' memory.
 *
 * Only cycles, energy and instruction counts are read, so figure
 * statistics the simulator gathers here are pure overhead.
 */

#include <array>
#include <cstring>
#include <stdexcept>

#include "compress/bdi.hpp"
#include "frontend/env.hpp"
#include "frontend/image.hpp"
#include "frontend/translate.hpp"
#include "harness/experiment.hpp"
#include "harness/thread_pool.hpp"
#include "perfbench.hpp"
#include "reference.hpp"

namespace perfbench {

using namespace warpcomp;

namespace {

/** Register images cut from each kernel's memory for the codec pass. */
constexpr u32 kCorpusImagesPerKernel = 2048;

struct KernelSpec
{
    std::string name;
    std::string hexPath;    ///< RV32 image; empty for built-in kernels
};

std::vector<KernelSpec>
suiteKernels()
{
    std::vector<KernelSpec> ks;
    for (const std::string &n : workloadNames())
        ks.push_back({n, ""});
    for (const char *n : {"vecadd", "saxpy", "reduction"})
        ks.push_back({n, std::string("examples/kernels/") + n + ".hex"});
    return ks;
}

WorkloadInstance
build(const KernelSpec &k, u64 salt, Tracer &tracer)
{
    if (k.hexPath.empty()) {
        Scope s(tracer, "workloads.build");
        return makeWorkload(k.name, 1, salt);
    }
    ImageLoadResult img;
    {
        Scope s(tracer, "frontend.load");
        img = loadKernelImage(k.hexPath);
    }
    if (!img.ok())
        throw std::runtime_error(img.error);
    TranslateResult tr;
    {
        Scope s(tracer, "frontend.translate");
        tr = translateImage(*img.image);
    }
    if (!tr.ok())
        throw std::runtime_error(tr.error);
    Scope s(tracer, "workloads.build");
    KernelEnv env = makeKernelEnv(img.image->blockDim, 1, salt);
    return {img.image->name, std::move(*tr.kernel), env.dims,
            std::move(env.gmem), std::move(env.cmem), "rv32",
            img.image->sha256};
}

RunResult
simulate(WorkloadInstance &wl, const ExperimentConfig &cfg)
{
    Gpu gpu(makeGpuParams(cfg), *wl.gmem, *wl.cmem);
    return gpu.run(wl.kernel, wl.dims);
}

} // namespace

Outcome
runSuite(Context &ctx)
{
    Outcome out;
    const std::vector<KernelSpec> kernels = suiteKernels();
    ExperimentConfig warped;
    warped.seedSalt = ctx.seed;

    // Set-up: build every kernel's inputs; the last set stays pristine
    // (never simulated) for the host references and the codec corpus.
    std::vector<WorkloadInstance> pristine;
    measureSetup(ctx, out, [&] {
        pristine.clear();
        for (const KernelSpec &k : kernels)
            pristine.push_back(build(k, ctx.seed, ctx.tracer));
    });

    std::vector<std::array<u8, kWarpRegBytes>> corpus;
    for (const WorkloadInstance &wl : pristine) {
        const std::span<const u8> mem = wl.gmem->bytes();
        for (u32 i = 0; i < kCorpusImagesPerKernel; ++i) {
            std::array<u8, kWarpRegBytes> img;
            std::memcpy(img.data(), mem.data() + u64{i} * kWarpRegBytes,
                        kWarpRegBytes);
            corpus.push_back(img);
        }
    }
    std::vector<BdiEncoded> encoded(corpus.size());
    std::vector<std::array<u8, kWarpRegBytes>> decoded(corpus.size());

    std::vector<WorkloadInstance> last;
    runRounds(ctx, out, RoundThreads::One, [] {}, [&](Round &r) {
        last.clear();
        for (const KernelSpec &k : kernels) {
            WorkloadInstance wl = build(k, ctx.seed, ctx.tracer);
            RunResult run = [&] {
                Scope s(ctx.tracer, "sim.run");
                return simulate(wl, warped);
            }();
            double energy_pj = 0.0;
            {
                Scope s(ctx.tracer, "power.price");
                energy_pj = run.meter.breakdown().totalPj();
            }
            addRunCounts(r, run);
            r.counts["points"] += 1;
            r.counts["rf_energy_pj"] += energy_pj;
            last.push_back(std::move(wl));
        }
        {
            Scope s(ctx.tracer, "compress.encode");
            for (std::size_t i = 0; i < corpus.size(); ++i)
                encoded[i] = bdiCompress(corpus[i], warpedCandidates());
        }
        {
            Scope s(ctx.tracer, "compress.decode");
            for (std::size_t i = 0; i < corpus.size(); ++i)
                decoded[i] = bdiDecompress(encoded[i]);
        }
        r.counts["compress.images"] = static_cast<double>(corpus.size());
        out.attempted += kernels.size() + corpus.size();
        out.check(decoded == corpus,
                  "bdiDecompress(bdiCompress(x)) == x on the codec corpus");
    });

    // Checks, untimed. Host references read the pristine inputs, then
    // the pristine instances run under None: compression is lossless,
    // so every final memory image must match the Warped one.
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        if (!hasHostReference(pristine[k].name))
            continue;
        const std::string diff =
            checkHostReference(pristine[k], *last[k].gmem);
        out.check(diff.empty(), "host reference: " + diff);
    }
    ExperimentConfig none = warped;
    none.scheme = CompressionScheme::None;
    parallelFor(pristine.size(), ctx.threads,
                [&](std::size_t k) { simulate(pristine[k], none); });
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const std::span<const u8> a = pristine[k].gmem->bytes();
        const std::span<const u8> b = last[k].gmem->bytes();
        out.check(a.size() == b.size() &&
                      std::memcmp(a.data(), b.data(), a.size()) == 0,
                  kernels[k].name + ": memory image under Warped differs "
                                    "from None");
    }
    return out;
}

} // namespace perfbench
