// `sweep`: the fault-free figure path. Every repetition simulates the 16
// SPEC2000-like profiles in all four modes on one thread, with a warm-up
// window followed by a measured window, exactly as the Figure 4-7 benches
// do through run_simulation (oracle on, Table-1 core).
#include <array>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "harness/driver.h"
#include "pipeline/core.h"
#include "probes.h"
#include "workload/profile.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kWarmupCommits = 20000;
constexpr std::uint64_t kBudgetCommits = 10000;
constexpr int kMinReps = 3;
constexpr int kSetupsPerBatch = 4;
constexpr std::array<bj::Mode, 4> kModes = {
    bj::Mode::kSingle, bj::Mode::kSrt, bj::Mode::kBlackjackNs,
    bj::Mode::kBlackjack};

std::vector<bj::Program> generate_programs(std::uint64_t seed) {
  std::vector<bj::Program> programs;
  for (const bj::WorkloadProfile& named : bj::spec2000_profiles()) {
    bj::WorkloadProfile profile = named;
    profile.seed = derive_seed(seed, "profile:" + profile.name);
    programs.push_back(bj::generate_workload(profile));
  }
  return programs;
}

bj::SimRequest request_for(bj::Mode mode) {
  bj::SimRequest request;
  request.mode = mode;
  request.warmup_commits = kWarmupCommits;
  request.budget_commits = kBudgetCommits;
  return request;
}

void mix_result(Digest& digest, const bj::SimResult& r) {
  digest.mix(std::string_view(r.workload));
  digest.mix(static_cast<std::uint64_t>(r.mode));
  digest.mix(r.cycles);
  digest.mix(r.commits);
  digest.mix(r.ipc);
  digest.mix(r.coverage_total);
  digest.mix(r.coverage_frontend);
  digest.mix(r.coverage_backend);
  digest.mix(r.coverage_pairs);
  digest.mix(r.lt_interference);
  digest.mix(r.tt_interference);
  digest.mix(r.other_diversity_loss);
  digest.mix(r.burstiness);
  digest.mix(r.shuffle_nops);
  digest.mix(r.packet_splits);
  digest.mix(r.packets);
  digest.mix(r.branch_mispredicts);
  digest.mix(r.finished);
  digest.mix(r.wedged);
  digest.mix(r.detected);
  digest.mix(static_cast<std::uint64_t>(r.detections.size()));
  digest.mix(r.oracle_violated);
}

// A fault-free run must commit its whole budget (commit is up to four wide,
// so it may overshoot by a few) with no detection, no watchdog wedge, and no
// oracle divergence.
bool clean(const bj::SimResult& r) {
  return r.commits >= kBudgetCommits && !r.detected && !r.wedged &&
         !r.oracle_violated;
}

std::string label(const bj::SimResult& r) {
  return r.workload + "/" + bj::mode_name(r.mode);
}

struct Rep {
  double wall_s = 0.0;  // summed run_simulation time, raw host seconds
  std::uint64_t commits = 0;  // warm-up + measured, every simulation
  std::vector<double> run_s;  // raw host seconds per simulation
  std::vector<bj::SimResult> results;  // program-major, kModes order
  std::uint64_t digest = 0;
};

// One pass over every (profile, mode). `between` (a reference-loop sample
// and a set-up batch) precedes each simulation, outside its timed interval.
Rep sweep_rep(const std::vector<bj::Program>& programs,
              const std::function<void()>& between, SpanLog& spans,
              Outcome& out) {
  Rep rep;
  Digest digest;
  for (const bj::Program& program : programs) {
    for (const bj::Mode mode : kModes) {
      between();
      const auto scope =
          spans.open(std::string("pipeline.run_simulation.") +
                     bj::mode_name(mode));
      const auto t = Clock::now();
      bj::SimResult r = bj::run_simulation(program, request_for(mode));
      const double s = seconds_since(t);
      rep.wall_s += s;
      rep.run_s.push_back(s);
      rep.commits += kWarmupCommits + r.commits;
      out.check(clean(r), "fault-free run " + label(r));
      mix_result(digest, r);
      rep.results.push_back(std::move(r));
    }
  }
  rep.digest = digest.value();
  return rep;
}

std::size_t mode_slot(bj::Mode mode) {
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    if (kModes[m] == mode) return m;
  }
  return 0;
}

// Paper-comparable model figures over one sweep's results: average total
// coverage (Figure 4) and average performance relative to single-thread at
// equal committed work (Figure 7).
struct Model {
  double coverage[kModes.size()] = {};
  double rel_perf[kModes.size()] = {};
};

Model model_of(const std::vector<bj::SimResult>& results) {
  Model model;
  const std::size_t n = results.size() / kModes.size();
  for (std::size_t p = 0; p < n; ++p) {
    const bj::SimResult& single = results[p * kModes.size()];
    for (std::size_t m = 0; m < kModes.size(); ++m) {
      const bj::SimResult& r = results[p * kModes.size() + m];
      model.coverage[m] += r.coverage_total / static_cast<double>(n);
      model.rel_perf[m] += static_cast<double>(single.cycles) /
                           static_cast<double>(r.cycles) /
                           static_cast<double>(n);
    }
  }
  return model;
}

void report_model(Outcome& out, const Model& model, const std::string& suffix) {
  const std::size_t srt = mode_slot(bj::Mode::kSrt);
  const std::size_t bj = mode_slot(bj::Mode::kBlackjack);
  out.layer("model.blackjack.coverage_avg" + suffix, model.coverage[bj],
            "fraction");
  out.layer("model.srt.coverage_avg" + suffix, model.coverage[srt], "fraction");
  out.layer("model.blackjack.rel_perf" + suffix, model.rel_perf[bj], "fraction");
  out.layer("model.srt.rel_perf" + suffix, model.rel_perf[srt], "fraction");
}

// Core-direct replica of run_simulation (same construction, oracle, cycle
// cap, warm-up boundary) for the numbers SimResult does not carry: host time
// per simulated cycle including the warm-up, and the shuffle cache counters.
void core_layer_probe(const std::vector<bj::Program>& programs,
                      const std::vector<bj::SimResult>& reference,
                      Outcome& out) {
  struct Totals {
    double seconds = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t commits = 0;
    std::uint64_t window_cycles = 0;
    std::uint64_t window_commits = 0;
  };
  std::array<Totals, kModes.size()> totals{};
  std::uint64_t hits = 0, misses = 0, packets = 0;
  bool agrees = true;
  const bj::CoreParams params;
  const std::uint64_t max_cycles =
      (kWarmupCommits + kBudgetCommits) * 64 + params.watchdog_cycles * 4;
  for (std::size_t p = 0; p < programs.size(); ++p) {
    for (std::size_t m = 0; m < kModes.size(); ++m) {
      const auto start = Clock::now();
      bj::Core core(programs[p], kModes[m], params);
      core.set_oracle_check(true);
      core.run(kWarmupCommits, max_cycles);
      core.reset_stats();
      const std::uint64_t window_start = core.cycle();
      core.run(kBudgetCommits, max_cycles);
      Totals& t = totals[m];
      t.seconds += seconds_since(start);
      t.cycles += core.cycle();
      t.commits += core.leading_commits();
      t.window_cycles += core.cycle() - window_start;
      t.window_commits += core.stats().leading_commits;
      const bj::SimResult& ref = reference[p * kModes.size() + m];
      agrees = agrees && core.cycle() - window_start == ref.cycles &&
               core.stats().leading_commits == ref.commits;
      if (kModes[m] == bj::Mode::kBlackjack) {
        hits += core.stats().shuffle_cache_hits;
        misses += core.stats().shuffle_cache_misses;
        packets += core.stats().packets_shuffled;
      }
    }
  }
  out.check(agrees, "Core-direct replica reproduces run_simulation counts");
  std::uint64_t cycles = 0, commits = 0;
  for (std::size_t m = 0; m < kModes.size(); ++m) {
    const Totals& t = totals[m];
    const std::string mode = bj::mode_name(kModes[m]);
    out.layer("pipeline.core.ns_per_cycle." + mode,
              t.seconds * 1e9 / static_cast<double>(t.cycles), "ns");
    out.layer("pipeline.core.ns_per_commit." + mode,
              t.seconds * 1e9 / static_cast<double>(t.commits), "ns");
    out.layer("pipeline.ipc." + mode,
              static_cast<double>(t.window_commits) /
                  static_cast<double>(t.window_cycles),
              "commits/cycle");
    cycles += t.window_cycles;
    commits += t.window_commits;
  }
  out.layer("pipeline.cycles", static_cast<double>(cycles), "count");
  out.layer("pipeline.commits", static_cast<double>(commits), "count");
  out.layer("blackjack.shuffle.hit_ratio",
            hits + misses ? static_cast<double>(hits) /
                                static_cast<double>(hits + misses)
                          : 0.0,
            "fraction");
  out.layer("blackjack.shuffle.packets", static_cast<double>(packets), "count");
}

}  // namespace

Outcome run_sweep(const Args& args) {
  Outcome out;
  SpanLog spans(args.trace);
  Calibration calibration;

  // Set-up: generate the 16 seed-perturbed kernels. The timed set-ups run
  // in batches between the simulations (see SetupTimer).
  const std::vector<bj::Program> programs = generate_programs(args.seed);
  std::vector<bj::Program> timed_programs;
  SetupTimer setup(kSetupsPerBatch, [&] {
    const auto scope = spans.open("workload.generate");
    timed_programs = generate_programs(args.seed);
  });
  const auto between = [&] {
    calibration.sample();
    setup.sample();
  };

  // Untimed warm-up repetition; its digest is the reference every timed
  // repetition must reproduce.
  spans.set_rep(-1);
  const Rep warm = sweep_rep(programs, between, spans, out);

  const std::size_t runs_per_rep = programs.size() * kModes.size();
  const double tail_p = tail_percentile_for(runs_per_rep);

  // Raw host times per timed repetition.
  std::vector<double> wall, run_p50, run_tail;
  std::vector<double> traced_wall, plain_wall;
  run_for(args.seconds, kMinReps, [&](int i) {
    // The traced run alternates span recording on and off so the recording
    // overhead is measured on the same process.
    const bool traced = args.trace && i % 2 == 0;
    spans.set_enabled(traced);
    spans.set_rep(i);
    const Rep rep = sweep_rep(programs, between, spans, out);
    out.check(rep.digest == warm.digest,
              "sweep repetition reproduces the simulated-statistics digest");
    wall.push_back(rep.wall_s);
    (traced ? traced_wall : plain_wall).push_back(rep.wall_s);
    run_p50.push_back(percentile(rep.run_s, 50.0));
    run_tail.push_back(percentile(rep.run_s, tail_p));
  });
  spans.set_enabled(args.trace);
  const double f = calibration.factor();
  out.speed_factor = f;
  out.calibration_mb = calibration.resident_mb();

  const double sweep_s = median(wall) * f;
  out.e2e("wall_s", sweep_s, "s");
  out.e2e("sim_commits_per_s", static_cast<double>(warm.commits) / sweep_s,
          "1/s");
  out.e2e("runs_per_s", static_cast<double>(runs_per_rep) / sweep_s, "1/s");
  out.e2e("run_ms.p50", median(run_p50) * f * 1e3, "ms");
  out.e2e("setup_s", setup.seconds() * f, "s");
  std::ostringstream tail_note;
  tail_note << "run_ms.tail = " << median(run_tail) * f * 1e3 << " ms: p"
            << tail_p << " of the " << runs_per_rep
            << " run_simulation calls of each repetition (median over "
            << wall.size() << " repetitions; a run is one simulation)";
  out.notes.push_back(tail_note.str());
  std::ostringstream walls;
  walls << "repetition wall_s (raw):";
  for (const double w : wall) walls << ' ' << w;
  out.notes.push_back(walls.str());
  out.notes.push_back("digest sweep seed=" + std::to_string(args.seed) + " " +
                      hex64(warm.digest));

  out.layer("workload.generate_ms", setup.seconds() * 1e3, "ms");
  out.layer("harness.run_ms.tail", median(run_tail) * 1e3, "ms");
  out.layer("bench.raw_wall_s", median(wall), "s");
  out.layer("host.calibration_ms", calibration.median_seconds() * 1e3, "ms");
  if (!args.trace) return out;

  out.layer("bench.trace_overhead", median(traced_wall) / median(plain_wall),
            "ratio");
  report_model(out, model_of(warm.results), "");
  core_layer_probe(programs, warm.results, out);

  std::vector<const bj::Program*> program_ptrs;
  for (const bj::Program& p : programs) program_ptrs.push_back(&p);
  out.layer("arch.emulator.minst_per_s",
            emulator_minst_per_s(program_ptrs, 200000), "Minst/s");
  std::vector<double> construct;
  for (const bj::Mode mode : kModes) {
    construct.push_back(core_construct_us(programs.front(), mode, {}));
  }
  out.layer("pipeline.core.construct_us", median(construct), "us");
  out.layer("blackjack.shuffle.ns_per_call", shuffle_ns_per_call(args.seed),
            "ns");
  out.layer("fault.ecc.ns_per_decode", ecc_ns_per_decode(args.seed), "ns");

  // The model against data held out of tuning: the same sweep at the
  // held-out seed.
  {
    const auto scope = spans.open("sweep.held_out");
    const std::vector<bj::Program> held_out = generate_programs(kHeldOutSeed);
    const Rep rep = sweep_rep(held_out, between, spans, out);
    report_model(out, model_of(rep.results), ".heldout");
  }
  spans.write_chrome_trace(args.work_dir + "/trace-sweep-" +
                           std::to_string(args.seed) + ".json");
  for (const auto& [name, s] : spans.self_seconds()) {
    out.notes.push_back("self " + name + " " + std::to_string(s) + " s");
  }
  return out;
}

}  // namespace perfbench
