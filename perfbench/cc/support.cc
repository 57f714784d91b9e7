#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <map>
#include <sstream>

#include "common/rng.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag) {
  std::uint64_t state = seed ^ bj::hash_name(tag);
  return bj::splitmix64(state);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr || index_ < 0) return;
  log_->spans_[static_cast<std::size_t>(index_)].end_s =
      seconds_since(log_->epoch_);
  log_->open_.pop_back();
}

SpanLog::Scope SpanLog::open(std::string name) {
  if (!enabled_) return Scope(nullptr, -1);
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.rep = rep_;
  span.start_s = seconds_since(epoch_);
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

std::vector<std::pair<std::string, double>> SpanLog::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
  }
  std::vector<std::pair<std::string, double>> out(by_name.begin(),
                                                  by_name.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << std::fixed
       << std::setprecision(1) << s.start_s * 1e6
       << ",\"dur\":" << s.seconds() * 1e6 << ",\"args\":{\"rep\":" << s.rep
       << ",\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 22;  // 16 MiB

// The reference loop: xorshift-driven read-modify-writes over a 16 MiB
// table plus a data-dependent branch. The table is larger than a core's
// private caches, so the loop slows down with shared-cache and memory
// contention the way the simulator does; an ALU-only loop stays flat under
// that contention and would not track it.
std::uint64_t reference_pass(std::vector<std::uint32_t>& table) {
  std::uint64_t x = 88172645463325252ull, acc = 0;
  for (std::uint32_t i = 0; i < 250000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& slot = table[x & (table.size() - 1)];
    slot += static_cast<std::uint32_t>(x);
    acc += slot ^ (acc >> 3);
    if (acc & 1) acc += i;
  }
  return acc;
}

}  // namespace

Calibration::Calibration() : table_(kTableWords, 1) {}

double Calibration::resident_mb() const {
  return static_cast<double>(table_.size() * sizeof(std::uint32_t)) /
         (1024.0 * 1024.0);
}

void Calibration::sample() {
  const auto start = Clock::now();
  const std::uint64_t sink = reference_pass(table_);
  const double seconds = seconds_since(start);
  // Recording only on a nonzero result keeps the loop observable; it is
  // nonzero for any table contents.
  if (sink != 0) samples_.push_back(seconds);
}

double Calibration::factor() const {
  return samples_.empty() ? 1.0 : kReferenceSeconds / median(samples_);
}

double Calibration::median_seconds() const { return median(samples_); }

void SetupTimer::sample() {
  const auto start = Clock::now();
  for (int i = 0; i < per_batch_; ++i) setup_();
  batches_.push_back(seconds_since(start) / per_batch_);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double tail_percentile_for(std::size_t samples) {
  for (const double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples)));
    if (samples >= rank + 10) return p;
  }
  return 50.0;
}

void Digest::mix(std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h_ ^= (v >> (8 * b)) & 0xFF;
    h_ *= 1099511628211ull;
  }
}

void Digest::mix(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  mix(bits);
}

void Digest::mix(std::string_view s) {
  mix(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    notes.push_back("FAILED: " + what);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double load_average_1m() {
  double load = -1.0;
  return getloadavg(&load, 1) == 1 ? load : -1.0;
}

}  // namespace perfbench
