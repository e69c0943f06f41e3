// Repository benchmark binary (see perfbench/README.md).
//
// Three workloads run against a testing::MiniCluster started in this
// process, which runs on one CPU (see IdleSpinner in harness.h). Load
// comes from three executor threads, each with its own FaaS-class client.
// Every end-to-end number comes from an untraced run; a traced run
// (--trace 1) alternates untraced windows with windows carrying the
// benchmark's own per-call spans and the program's tracing, and reports
// per-layer figures.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "stats.h"

namespace perfbench {

// Workload parameters from workloads.json, handed over by run.py as
// --param key=value. Every key must be consumed: a typo or a stale key in
// the file is an error, never a silent default.
class Params {
 public:
  void Set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }
  double Num(const std::string& key);
  std::uint64_t Int(const std::string& key);
  bool Flag(const std::string& key) { return Int(key) != 0; }
  // Keys set but never read.
  std::vector<std::string> Unread() const;

 private:
  std::map<std::string, std::string> values_;
  std::map<std::string, bool> read_;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Params params;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // the JSON line
  std::vector<std::string> notes;  // human-readable lines printed above it
  std::vector<std::string> errors;  // output-check failures
  // Reasons the run cannot support its figures (too few samples): perfbench
  // then exits non-zero without a JSON line.
  std::vector<std::string> invalid;
};

glider::Result<Outcome> RunActionMix(RunConfig& config);
glider::Result<Outcome> RunFilesTcp(RunConfig& config);
glider::Result<Outcome> RunReduceStream(RunConfig& config);

}  // namespace perfbench
