#include "report.h"

#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <fstream>
#include <stdexcept>

#include "common/thread_pool.h"
#include "timeseries/simd.h"

namespace bb {

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// A "Name:   1234 kB" field of /proc/self/status, in MiB.
double status_mb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  throw std::runtime_error("no " + field + " in /proc/self/status");
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string number(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void score_into(vp::sim::RateAverager& rates, const ReplayResult& result,
                const Part& part) {
  const auto label = [&](vp::IdentityId id) -> int {
    const auto it = part.illegitimate.find(id);
    return it == part.illegitimate.end() ? -1 : (it->second ? 1 : 0);
  };
  for (const DeliveredRound& round : result.rounds) {
    vp::sim::DetectionCounts counts;
    for (vp::IdentityId id : round.heard) {
      const int l = label(id);
      if (l < 0) continue;
      const bool flagged =
          std::find(round.suspects.begin(), round.suspects.end(), id) !=
          round.suspects.end();
      if (l == 1) {
        ++counts.illegitimate;
        if (flagged) ++counts.detected_true;
      } else {
        ++counts.legitimate;
        if (flagged) ++counts.detected_false;
      }
    }
    rates.add("single", counts);
  }
  for (const vp::fusion::FusedEpoch& epoch : result.epochs) {
    vp::sim::DetectionCounts counts;
    for (const vp::fusion::FusedVerdict& v : epoch.verdicts) {
      const int l = label(v.id);
      if (l < 0) continue;
      if (l == 1) {
        ++counts.illegitimate;
        if (v.accused) ++counts.detected_true;
      } else {
        ++counts.legitimate;
        if (v.accused) ++counts.detected_false;
      }
    }
    rates.add("fused", counts);
  }
}

Quality quality(const vp::sim::RateAverager& rates) {
  Quality q;
  q.detection_rate = rates.average_dr("single");
  q.false_positive_rate = rates.average_fpr("single");
  q.fused_detection_rate = rates.average_dr("fused");
  q.fused_false_positive_rate = rates.average_fpr("fused");
  q.round_samples = rates.defined_dr_samples("single");
  q.epoch_samples = rates.defined_dr_samples("fused");
  return q;
}

double lost_ratio(const ReplayResult& r, const Part& w) {
  const double lost_beacons =
      static_cast<double>(w.valid_beacons) -
      static_cast<double>(r.service.beacons_ingested);
  const double lost_rounds = static_cast<double>(r.service.rounds_prepared) -
                             static_cast<double>(r.rounds.size());
  return (lost_beacons + lost_rounds) /
         static_cast<double>(w.valid_beacons + r.service.rounds_prepared);
}

double reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset VmHWM via clear_refs");
  return status_mb("VmRSS");
}

double peak_rss_mb() { return status_mb("VmHWM"); }

std::string metadata_json(const std::string& workload, std::uint64_t seed,
                          const std::string& commit, bool traced) {
  return "{\"workload\": " + quoted(workload) +
         ", \"seed\": " + std::to_string(seed) +
         ", \"trace\": " + (traced ? "1" : "0") +
         ", \"cpu\": " + quoted(cpu_model()) +
         ", \"nproc\": " + std::to_string(vp::hardware_threads()) +
         ", \"pool_width\": " + std::to_string(pool_width()) +
         ", \"compiler\": " + quoted(compiler()) +
         ", \"build_type\": " + quoted(BEACONBENCH_BUILD_TYPE) +
         ", \"simd\": " + quoted(vp::ts::simd::kBackend) +
         ", \"commit\": " + quoted(commit) + "}";
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}}";
}

}  // namespace bb
