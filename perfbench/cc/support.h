// Shared plumbing of the perfbench program: the command line, the in-memory
// span recorder, order statistics, the simulated-statistics digest, and the
// metric sheet every workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch space for campaign stores and the trace
  int jobs = 1;          // campaign worker threads (= CPUs online)
};

// Seeds the benchmark documents (README.md): the one its sizes were tuned
// on, and one kept out of tuning that the traced sweep re-checks the model
// against.
inline constexpr std::uint64_t kTuningSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 7;

// Derives an independent 64-bit seed for one input (a profile, a campaign
// slice) from the benchmark seed, so every input changes with --seed and
// none depends on another's draw.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag);

// Spans recorded around every call the benchmark makes into a simulator
// layer. Disabled logs record nothing and read no clock. Spans of one
// repetition share its `rep` number; `parent` is the span that was open
// when this one started (-1 at top level). Single-threaded by design: every
// span is opened and closed on the benchmark's main thread.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    int rep = 0;
    double start_s = 0.0;
    double end_s = 0.0;
    double seconds() const { return end_s - start_s; }
  };

  class Scope {
   public:
    Scope(SpanLog* log, int index) : log_(log), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    SpanLog* log_;
    int index_;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_rep(int rep) { rep_ = rep; }
  Scope open(std::string name);

  // Self time (duration minus the part covered by child spans) summed per
  // span name, as (name, seconds) sorted by descending time.
  std::vector<std::pair<std::string, double>> self_seconds() const;
  // Chrome trace-event JSON (chrome://tracing, Perfetto).
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  int rep_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Host-speed calibration. A shared host's speed drifts by tens of percent
// over minutes when other tenants contend for its caches and memory, which
// would swamp any code change in raw host times. The benchmark therefore
// times a fixed reference loop, compiled into the benchmark itself and
// independent of the simulator, between the steps it measures, and scales
// every reported host time by kReferenceSeconds / (median reference-loop
// time of the run): host times are reported "at reference speed".
class Calibration {
 public:
  // One pass of the reference loop takes this long at reference speed
  // (about its median on the 4-CPU x86-64 container the bounds were tuned
  // on, so reported times stay close to raw ones there).
  static constexpr double kReferenceSeconds = 0.005;

  // Allocates and touches the loop's table up front, so no sample pays for
  // page faults.
  Calibration();

  // Times one pass.
  void sample();
  // Multiplier for the run's host times: reference over the median pass
  // (1 before the first sample).
  double factor() const;
  // Median pass time over every sample, in seconds.
  double median_seconds() const;
  // Memory the table keeps resident, which peak_rss_mb leaves out.
  double resident_mb() const;

 private:
  std::vector<std::uint32_t> table_;
  std::vector<double> samples_;  // seconds per pass
};

// Order statistics over a sample (copied; the input is left untouched).
double median(std::vector<double> values);
// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> values, double p);
// The highest percentile on a fixed ladder (99.9 ... 50) that leaves at
// least ten of `samples` beyond it.
double tail_percentile_for(std::size_t samples);

// FNV-1a digest of simulated statistics: everything fed to it is a
// simulated quantity, never a host time.
class Digest {
 public:
  void mix(std::uint64_t v);
  void mix(double v);
  void mix(bool v) { mix(static_cast<std::uint64_t>(v ? 1 : 0)); }
  void mix(std::string_view s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::string hex64(std::uint64_t v);

// Result of one benchmark invocation: the end-to-end and per-layer metric
// sheets, the correctness tally, and human-readable notes printed before
// the final JSON line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  // Run-level Calibration::factor(); main() applies it to every per-layer
  // host time outside the host.* and bench.* namespaces.
  double speed_factor = 1.0;
  // Calibration::resident_mb(), subtracted from the peak resident set.
  double calibration_mb = 0.0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  // Counts one correctness-checked operation; a failure also gets a note.
  void check(bool ok, const std::string& what);
};

// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();
// 1-minute load average, or -1 when unreadable.
double load_average_1m();

// Set-up timing. One set-up lasts a fraction of a millisecond, and a shared
// host's speed swings by up to 2x over tens of milliseconds, so set-ups
// timed back to back at the start of a run read only that moment's speed.
// The workloads instead time a small batch of set-ups next to every
// reference-loop sample, between the timed steps of the whole run, and
// report the median batch. Each batch builds its own inputs (and, for a
// campaign, its own store), which the timed steps never use.
class SetupTimer {
 public:
  SetupTimer(int per_batch, std::function<void()> setup)
      : per_batch_(per_batch), setup_(std::move(setup)) {}

  // Times one batch.
  void sample();
  // Median batch time over the batch size, in raw host seconds (0 before
  // the first sample).
  double seconds() const { return median(batches_); }

 private:
  int per_batch_;
  std::function<void()> setup_;
  std::vector<double> batches_;  // seconds per set-up, one per batch
};

// Repeats `fn` until `seconds` have elapsed and at least `min_reps` runs
// were made. Returns the number of runs.
template <typename Fn>
int run_for(double seconds, int min_reps, Fn&& fn) {
  const auto start = Clock::now();
  int reps = 0;
  while (reps < min_reps || seconds_since(start) < seconds) fn(reps++);
  return reps;
}

}  // namespace perfbench
