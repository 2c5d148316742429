#include "ledger.h"

#include <sys/resource.h>

#include <chrono>

namespace perfbench {

namespace json = diog::json;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t hash_text(std::string_view text) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool Tally::check(bool ok, std::string_view what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (first_failures_.size() < 8) first_failures_.emplace_back(what);
  }
  return ok;
}

json::Value Tally::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Array failures;
  for (const std::string& f : first_failures_) failures.emplace_back(f);
  json::Object o;
  o["attempted"] = attempted_;
  o["failed"] = failed_;
  o["first_failures"] = std::move(failures);
  return json::Value(std::move(o));
}

void Ledger::sample(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  series_[name].push_back(v);
}

void Ledger::set(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] = v;
}

void Ledger::add(const std::string& name, double v) {
  std::lock_guard<std::mutex> lock(mu_);
  values_[name] += v;
}

std::vector<double> Ledger::series(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(name);
  return it == series_.end() ? std::vector<double>{} : it->second;
}

double Ledger::value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

json::Value Ledger::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Object series;
  for (const auto& [name, vs] : series_) {
    json::Array a;
    for (const double v : vs) a.emplace_back(v);
    series[name] = std::move(a);
  }
  json::Object values;
  for (const auto& [name, v] : values_) values[name] = v;
  json::Object o;
  o["series"] = std::move(series);
  o["values"] = std::move(values);
  return json::Value(std::move(o));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
