/**
 * @file
 * Host references for the `suite` workload: expected output buffers
 * recomputed on the host from a kernel's generated inputs, with no use
 * of the simulator. They read the inputs from the workload's memory
 * image, so they hold at any input seed.
 */

#ifndef PERFBENCH_REFERENCE_HPP
#define PERFBENCH_REFERENCE_HPP

#include <string>

#include "workloads/workload.hpp"

namespace perfbench {

/** True when @p kernel (its WorkloadInstance name) has a reference. */
bool hasHostReference(const std::string &kernel);

/**
 * Compare the output buffer of @p kernel in @p after (the memory image
 * after a simulated run) with the host reference computed from
 * @p inputs (an instance built with the same seed, never run). Returns
 * an empty string when they agree, else the first mismatch.
 */
std::string checkHostReference(const warpcomp::WorkloadInstance &inputs,
                               const warpcomp::GlobalMemory &after);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HPP
