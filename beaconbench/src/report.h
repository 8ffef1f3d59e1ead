// Scoring against ground truth, run metadata, and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "replay.h"
#include "sim/metrics.h"
#include "workloads.h"

namespace bb {

// Eq. 12 / Eq. 13 averages: per delivered round over the identities the
// round compared, and per closed fusion epoch over its verdicts.
struct Quality {
  double detection_rate = 0.0;
  double false_positive_rate = 0.0;
  double fused_detection_rate = 0.0;
  double fused_false_positive_rate = 0.0;
  std::size_t round_samples = 0;  // rounds with a defined DR
  std::size_t epoch_samples = 0;  // epochs with a defined DR
};
// Adds one replay's rounds (channel "single") and closed epochs (channel
// "fused") to `rates`.
void score_into(vp::sim::RateAverager& rates, const ReplayResult& result,
                const Part& part);
Quality quality(const vp::sim::RateAverager& rates);

// (valid beacons not ingested + rounds prepared but not delivered) /
// (valid beacons sent + rounds prepared).
double lost_ratio(const ReplayResult& result, const Part& part);

// The system's own peak memory. reset_peak_rss() hands freed heap back to
// the kernel, resets the kernel's peak-RSS mark (VmHWM) to the current
// RSS and returns that RSS; peak_rss_mb() reads the mark. Their difference
// across a replay is the replay's peak above what the harness already
// held (its generated inputs stay resident for the whole run). Linux only.
double reset_peak_rss();
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// One JSON object on one line: CPU model, nproc, compiler, build type,
// SIMD backend, commit, seed and pool width.
std::string metadata_json(const std::string& workload, std::uint64_t seed,
                          const std::string& commit, bool traced);

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& metrics);

std::string number(double value);  // shortest round-trip decimal

}  // namespace bb
