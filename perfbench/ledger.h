// What one benchmark run records, and the small helpers every workload
// shares: a wall clock, the correctness tally, and the JSON document
// perfbench/run.py turns into medians, tails and the result line.
//
// The driver only measures. Statistics (medians, the tail-sample rule,
// metric-name validation) live in run.py, so there is exactly one
// implementation of each and its self-tests cover it.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.h"

namespace perfbench {

// Milliseconds on the steady clock (an arbitrary epoch).
double now_ms();

// FNV-1a over text: the body and export hashes the checks compare.
std::uint64_t hash_text(std::string_view text);

// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// Correctness accounting. Every operation a workload performs and every
// output it verifies is one attempt; a wrong output, a refused request
// or an exception is one failure. Thread-safe: load generators share one.
class Tally {
 public:
  // Records one attempt; returns `ok` so callers can branch on it.
  bool check(bool ok, std::string_view what);
  [[nodiscard]] diog::json::Value to_json() const;

 private:
  mutable std::mutex mu_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> first_failures_;  // capped, for the log
};

// Named measurements. A series holds one value per sample (run.py
// reports its median, and a tail where the samples allow one); a value
// is a single number. Thread-safe.
class Ledger {
 public:
  void sample(const std::string& name, double v);
  void set(const std::string& name, double v);
  // Accumulates into a value (per-layer sums over several runs).
  void add(const std::string& name, double v);
  [[nodiscard]] std::vector<double> series(const std::string& name) const;
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] diog::json::Value to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, double> values_;
};

double mean(const std::vector<double>& v);

}  // namespace perfbench
