// Stand-alone layer probes for the traced run: each times one public entry
// point of one layer in isolation, outside every timed repetition.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/program.h"
#include "pipeline/core.h"

namespace perfbench {

// Millions of instructions per host second of Emulator::run, summed over
// `instructions` steps of each program.
double emulator_minst_per_s(const std::vector<const bj::Program*>& programs,
                            std::uint64_t instructions);

// Median microseconds to construct one Core (no injector) for `program`.
double core_construct_us(const bj::Program& program, bj::Mode mode,
                         const bj::CoreParams& params);

// Nanoseconds per safe_shuffle call over seed-drawn 4-wide packets.
double shuffle_ns_per_call(std::uint64_t seed);

// Nanoseconds per Hsiao SEC-DED ecc_decode over seed-drawn words carrying
// zero, one, or two flipped bits.
double ecc_ns_per_decode(std::uint64_t seed);

}  // namespace perfbench
