// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--param key=value ...]
//
// Runs one workload and prints its figures, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every output check passed, 1 when one failed, 2 when
// the run could not be made or held too few samples (no JSON line then).
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "bench.h"
#include "harness.h"

namespace perfbench {

double Params::Num(const std::string& key) {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::invalid_argument("missing --param " + key);
  read_[key] = true;
  std::size_t used = 0;
  const double v = std::stod(it->second, &used);
  if (used != it->second.size()) {
    throw std::invalid_argument("--param " + key + " is not a number");
  }
  return v;
}

std::uint64_t Params::Int(const std::string& key) {
  const double v = Num(key);
  if (v < 0 || v != static_cast<double>(static_cast<std::uint64_t>(v))) {
    throw std::invalid_argument("--param " + key + " is not a whole number");
  }
  return static_cast<std::uint64_t>(v);
}

std::vector<std::string> Params::Unread() const {
  std::vector<std::string> unread;
  for (const auto& [key, value] : values_) {
    if (!read_.contains(key)) unread.push_back(key);
  }
  return unread;
}

namespace {

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload action_mix|files_tcp|reduce_stream"
               " --seed N --seconds S --trace 0|1 [--param key=value ...]\n";
  return 2;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      config.trace = value == "1";
      have_trace = true;
    } else if (flag == "--param") {
      const std::size_t eq = value.find('=');
      if (eq == std::string::npos) return Usage("--param takes key=value");
      config.params.Set(value.substr(0, eq), value.substr(eq + 1));
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || config.seconds <= 0) {
    return Usage("--seed, --seconds (> 0) and --trace are required");
  }

  // One CPU, kept from idling: see IdleSpinner.
  if (const glider::Status pinned = PinToOneCpu(); !pinned.ok()) {
    std::cerr << "perfbench: " << pinned.ToString() << "\n";
    return 2;
  }
  const IdleSpinner spinner;
  glider::Result<Outcome> result = glider::Status::InvalidArgument("");
  if (config.workload == "action_mix") {
    result = RunActionMix(config);
  } else if (config.workload == "files_tcp") {
    result = RunFilesTcp(config);
  } else if (config.workload == "reduce_stream") {
    result = RunReduceStream(config);
  } else {
    return Usage("unknown workload '" + config.workload + "'");
  }
  if (!result.ok()) {
    std::cerr << "perfbench: " << config.workload
              << " could not run: " << result.status().ToString() << "\n";
    return 2;
  }
  if (const auto unread = config.params.Unread(); !unread.empty()) {
    return Usage("unused --param " + unread.front());
  }

  const Outcome& out = *result;
  if (!out.invalid.empty()) {
    for (const std::string& why : out.invalid) std::cerr << "perfbench: " << why << "\n";
    return 2;
  }
  for (const Metric& metric : out.metrics) {
    if (!std::isfinite(metric.value)) {
      std::cerr << "perfbench: " << metric.name << " is not finite\n";
      return 2;
    }
  }
  for (const std::string& note : out.notes) std::cout << "# " << note << "\n";
  for (const std::string& error : out.errors) {
    std::cout << "# CHECK FAILED: " << error << "\n";
  }
  std::string json = std::string("{\"correct\": ") + (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << m.name << " = " << Number(m.value) << " " << m.unit << "\n";
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  std::cout << json << "}}" << std::endl;
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
