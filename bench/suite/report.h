#ifndef MMM_BENCH_SUITE_REPORT_H_
#define MMM_BENCH_SUITE_REPORT_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "serialize/json.h"

namespace mmm::bench {

/// Quantile `q` in [0, 1] of `values` by linear interpolation between the
/// closest ranks; 0 for an empty input.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// `num / den`, or 0 when there is nothing to divide by.
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// \brief One reported number. Metrics taken from a sample (latencies)
/// also carry that sample's size, median and quartiles; the rest are
/// single measurements (n = 1).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t n = 1;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

/// \brief The metrics of one workload run, printed as `name value unit`
/// lines and written into the run envelope.
class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit), 1, value,
                        value, value});
  }

  /// Adds `value`, a statistic of `sample`, with the sample's distribution.
  void AddSampled(std::string name, double value, std::string unit,
                  const std::vector<double>& sample) {
    metrics_.push_back({std::move(name), value, std::move(unit), sample.size(),
                        Quantile(sample, 0.25), Quantile(sample, 0.5),
                        Quantile(sample, 0.75)});
  }

  bool Has(const std::string& name) const {
    return std::any_of(metrics_.begin(), metrics_.end(),
                       [&](const Metric& m) { return m.name == name; });
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      if (m.n > 1) {
        std::printf("%s %.6g %s n=%zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.n);
      } else {
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
      }
    }
  }

  JsonValue ToJson() const {
    JsonValue out = JsonValue::Object();
    for (const Metric& m : metrics_) {
      JsonValue entry = JsonValue::Object();
      entry.Set("value", m.value);
      entry.Set("unit", m.unit);
      entry.Set("n", static_cast<uint64_t>(m.n));
      entry.Set("q1", m.q1);
      entry.Set("median", m.median);
      entry.Set("q3", m.q3);
      out.Set(m.name, std::move(entry));
    }
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace mmm::bench

#endif  // MMM_BENCH_SUITE_REPORT_H_
