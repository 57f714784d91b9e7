#include "probes.h"

#include <vector>

#include "arch/emulator.h"
#include "blackjack/shuffle.h"
#include "common/rng.h"
#include "fault/ecc.h"
#include "support.h"

namespace perfbench {

double emulator_minst_per_s(const std::vector<const bj::Program*>& programs,
                            std::uint64_t instructions) {
  std::uint64_t retired = 0;
  double seconds = 0.0;
  for (const bj::Program* program : programs) {
    bj::Emulator emu(*program);
    const auto start = Clock::now();
    retired += emu.run(instructions);
    seconds += seconds_since(start);
  }
  return seconds > 0.0 ? static_cast<double>(retired) / seconds / 1e6 : 0.0;
}

double core_construct_us(const bj::Program& program, bj::Mode mode,
                         const bj::CoreParams& params) {
  std::vector<double> samples;
  for (int i = 0; i < 9; ++i) {
    const auto start = Clock::now();
    bj::Core core(program, mode, params);
    samples.push_back(seconds_since(start) * 1e6);
  }
  return median(samples);
}

double shuffle_ns_per_call(std::uint64_t seed) {
  // Leading packets as the issue stage forms them: up to four instructions,
  // each class within its unit count (four integer ALUs, two of the rest).
  bj::Rng rng(derive_seed(seed, "probe:shuffle"));
  std::vector<std::vector<bj::ShuffleInst>> packets;
  while (packets.size() < 4096) {
    std::vector<bj::ShuffleInst> packet;
    int used[bj::kNumFuClasses] = {};
    const int n = 1 + static_cast<int>(rng.next_below(4));
    for (int j = 0; j < n; ++j) {
      const auto fu = static_cast<bj::FuClass>(rng.next_below(5));
      const int ways = fu == bj::FuClass::kIntAlu ? 4 : 2;
      if (used[static_cast<int>(fu)] >= ways) continue;
      packet.push_back(bj::ShuffleInst{fu, static_cast<int>(rng.next_below(4)),
                                       used[static_cast<int>(fu)]++});
    }
    if (!packet.empty()) packets.push_back(std::move(packet));
  }
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  for (int round = 0; round < 8; ++round) {
    for (const auto& packet : packets) {
      sink += bj::safe_shuffle(packet, 4).packets.size();
    }
  }
  const double seconds = seconds_since(start);
  if (sink == 0) return 0.0;  // keeps the calls observable
  return seconds * 1e9 / static_cast<double>(8 * packets.size());
}

double ecc_ns_per_decode(std::uint64_t seed) {
  bj::Rng rng(derive_seed(seed, "probe:ecc"));
  struct Word {
    std::uint64_t data;
    std::uint32_t check;
  };
  std::vector<Word> words(1 << 16);
  for (Word& w : words) {
    const std::uint64_t clean = rng.next_u64();
    w.check = bj::ecc_encode(bj::EccCodec::kHsiao, clean);
    w.data = clean;
    const auto flips = rng.next_below(3);
    for (std::uint64_t f = 0; f < flips; ++f) w.data ^= 1ull << rng.next_below(64);
  }
  std::uint64_t sink = 0;
  const auto start = Clock::now();
  for (int round = 0; round < 16; ++round) {
    for (const Word& w : words) {
      const bj::EccDecode d = bj::ecc_decode(bj::EccCodec::kHsiao, w.data, w.check);
      sink += d.data + (d.corrected ? 1 : 0) + (d.uncorrectable ? 2 : 0);
    }
  }
  const double seconds = seconds_since(start);
  if (sink == 0) return 0.0;
  return seconds * 1e9 / static_cast<double>(16 * words.size());
}

}  // namespace perfbench
