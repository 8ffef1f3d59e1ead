// beaconbench: one beacon-to-verdict benchmark over the production stack.
//
//   beaconbench --workload highway|jam|fanin --seed N --seconds S --trace 0|1
//               [--commit SHA] [--ledger-out FILE] [--inject digest|law]
//
// --trace 0 replays the workload untraced until S seconds have passed
// (and the tail percentile has ten samples above it) and prints the
// end-to-end metrics; --trace 1 alternates untraced and traced replays,
// runs the stream capture pass, and prints the per-layer ledger. The last
// stdout line is the JSON result; it is printed only when every
// correctness gate passed. --inject corrupts one gate's input, to prove
// that gate fails the run (exit code 3).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "common/rng.h"
#include "gates.h"
#include "replay.h"
#include "report.h"
#include "stats.h"
#include "workloads.h"

namespace {

using Clock = std::chrono::steady_clock;
using bb::Metric;

// Set-up samples, each the mean of one batch of constructions: a block
// after a few untimed warm-up batches, then a few after every replay. The
// same construction ran 1.6x faster on some vCPUs of a shared host than on
// others, and a process moves between them, so samples spread over the
// whole run give a median that repeats from run to run; one block at the
// start did not.
constexpr int kSetupWarmups = 5;
constexpr int kSetupFirst = 5;
constexpr int kSetupPerReplay = 4;
// Share of the traced wall time the layer spans may leave unattributed.
constexpr double kLedgerTolerance = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string commit = "unknown";
  std::string ledger_out;
  std::string inject;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "beaconbench: " << why
            << "\nusage: beaconbench --workload highway|jam|fanin --seed N "
               "--seconds S --trace 0|1 [--commit SHA] [--ledger-out FILE] "
               "[--inject digest|law]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--ledger-out") {
        args.ledger_out = value;
      } else if (flag == "--inject") {
        args.inject = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (bb::find_spec(args.workload) == nullptr) usage("unknown workload");
  if (!have_seed) usage("--seed is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (!args.inject.empty() && args.inject != "digest" && args.inject != "law") {
    usage("--inject takes digest or law");
  }
  return args;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Gates every replay passes; returns its verdict digest.
std::uint64_t gate_replay(const bb::ReplayResult& r, const bb::Part& part,
                          bool inject_law) {
  std::map<std::string, double> inputs = bb::law_inputs(r);
  if (inject_law) inputs["wire.frames_received"] += 1;
  bb::check_laws(inputs);
  bb::check_flow(r, part);
  bb::check_injected(r, part.injected);
  return bb::verdict_digest(r.rounds, r.epochs);
}

void write_ledger(const std::string& path, const std::vector<bb::Span>& spans) {
  std::ofstream out(path);
  for (const bb::Span& s : spans) {
    out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"round\": " << s.round << "}\n";
  }
}

// The per-layer metrics of a traced run, and the ledger line that splits
// the traced wall time between the layers.
std::vector<Metric> layer_metrics(const bb::Workload& w,
                                  const bb::LayerLedger& ledger,
                                  const vp::wire::IngestServer::Stats& rejects,
                                  const std::vector<double>& traced_wall,
                                  const std::vector<double>& untraced_wall) {
  const bb::StreamCapture capture = bb::capture_stream(w);
  const double width = static_cast<double>(bb::pool_width());
  double wall_ns = 0.0;
  for (double x : traced_wall) wall_ns += x * 1e9;
  const double drain_self =
      ledger.drain_ns - ledger.pump_ns - ledger.listener_ns;
  const double harness = ledger.send_ns + ledger.listener_ns - ledger.observe_ns;
  const double fusion = ledger.observe_ns + ledger.advance_ns;
  const double unattributed =
      wall_ns - (ledger.poll_ns + drain_self + ledger.pump_ns + fusion + harness);
  std::printf("# ledger over %zu traced passes (%.3f s): wire.poll %.2f%%, "
              "service.drain(self) %.2f%%, service.pump %.2f%%, fusion "
              "%.2f%%, harness %.2f%%, unattributed %.3f%% (tolerance "
              "%.1f%%)\n",
              traced_wall.size(), wall_ns * 1e-9,
              100 * ledger.poll_ns / wall_ns, 100 * drain_self / wall_ns,
              100 * ledger.pump_ns / wall_ns, 100 * fusion / wall_ns,
              100 * harness / wall_ns, 100 * unattributed / wall_ns,
              100 * kLedgerTolerance);
  std::printf("# service.queue_wait_ms is the median of %zu samples; the "
              "capture pass timed %llu ingest calls and %llu round cuts\n",
              ledger.queue_wait_ms.size(),
              static_cast<unsigned long long>(capture.beacons),
              static_cast<unsigned long long>(capture.rounds));
  const auto per = [](double sum, std::uint64_t count) {
    return ratio(sum, static_cast<double>(count));
  };
  return {
      {"wire.poll_ns_per_frame", per(ledger.poll_ns, ledger.frames_received),
       "ns"},
      {"wire.rejected.bad_magic",
       static_cast<double>(rejects.reject_bad_magic), "count"},
      {"wire.rejected.bad_checksum",
       static_cast<double>(rejects.reject_bad_checksum), "count"},
      {"wire.rejected.replayed_seq",
       static_cast<double>(rejects.reject_replayed_seq), "count"},
      {"service.drain_ns_per_beacon",
       per(drain_self, ledger.beacons_delivered), "ns"},
      {"service.pump_ms", per(ledger.pump_ns, ledger.pumps) * 1e-6, "ms"},
      {"service.rounds_per_pump",
       per(static_cast<double>(ledger.rounds_executed), ledger.pumps), "count"},
      {"service.pump_efficiency",
       ratio(ledger.round_ns, ledger.pump_ns * width), "ratio"},
      {"service.queue_wait_ms",
       ledger.queue_wait_ms.empty() ? 0.0 : bb::median(ledger.queue_wait_ms),
       "ms"},
      {"stream.ingest_ns_per_beacon", capture.ingest_ns_per_beacon, "ns"},
      {"stream.prepare_us_per_round", capture.prepare_us_per_round, "us"},
      {"core.round_ms", per(ledger.round_ns, ledger.rounds) * 1e-6, "ms"},
      {"core.compare_us_per_pair",
       per(ledger.sweep_ns, ledger.pairs_total) * 1e-3, "us"},
      {"core.comparable_ratio",
       per(static_cast<double>(ledger.pairs_comparable), ledger.pairs_total),
       "ratio"},
      {"core.align_ns_per_pair", per(ledger.align_ns, ledger.align_n), "ns"},
      {"core.zscore_ns_per_pair", per(ledger.zscore_ns, ledger.zscore_n),
       "ns"},
      {"core.minmax_us_per_round",
       per(ledger.minmax_ns, ledger.minmax_n) * 1e-3, "us"},
      {"core.confirm_us_per_round",
       per(ledger.confirm_ns, ledger.confirm_n) * 1e-3, "us"},
      {"timeseries.dtw_us_per_pair", per(ledger.dtw_ns, ledger.dtw_n) * 1e-3,
       "us"},
      {"timeseries.cells_per_solve",
       per(static_cast<double>(ledger.dtw_cells), ledger.dtw_solves),
       "count"},
      {"timeseries.ns_per_cell", per(ledger.dtw_ns, ledger.dtw_cells), "ns"},
      {"fusion.observe_ns_per_round", per(ledger.observe_ns, ledger.observes),
       "ns"},
      {"fusion.advance_us", per(ledger.advance_ns, ledger.advances) * 1e-3,
       "us"},
      {"harness.send_ns_per_frame", per(ledger.send_ns, ledger.frames_sent),
       "ns"},
      {"harness.generate_s", w.generate_s, "s"},
      {"trace.overhead_frac",
       bb::median(traced_wall) / bb::median(untraced_wall) - 1.0, "ratio"},
      {"ledger.unattributed_frac", unattributed / wall_ns, "ratio"},
  };
}

int run(const Args& args) {
  const bb::WorkloadSpec& spec = *bb::find_spec(args.workload);
  const bool traced_run = args.trace == 1;
  std::cout << "# meta "
            << bb::metadata_json(spec.name, args.seed, args.commit, traced_run)
            << "\n";

  std::vector<double> setups;
  const auto sample_setup = [&](int samples) {
    for (int i = 0; i < samples; ++i) {
      setups.push_back(bb::time_setup(bb::kConnections));
    }
  };
  for (int i = 0; i < kSetupWarmups; ++i) bb::time_setup(bb::kConnections);
  sample_setup(kSetupFirst);

  const bb::Workload w = bb::generate(spec, args.seed);
  std::uint64_t attempted = 0;
  double peak_mb = 0.0;  // highest untraced replay's peak above its baseline

  // One pass replays every part through a fresh system and gates each
  // replay; the pass digest combines the parts' verdict digests.
  struct Pass {
    std::vector<bb::ReplayResult> results;
    std::uint64_t digest = 0;
  };
  const auto run_pass = [&](const bb::Workload& workload, bool traced) {
    Pass pass;
    for (const bb::Part& part : workload.parts) {
      const double baseline_mb = traced ? 0.0 : bb::reset_peak_rss();
      bb::ReplayResult r = bb::replay(part, traced);
      if (!traced) peak_mb = std::max(peak_mb, bb::peak_rss_mb() - baseline_mb);
      ++attempted;
      sample_setup(kSetupPerReplay);
      pass.digest = vp::mix64(pass.digest,
                              gate_replay(r, part, args.inject == "law"));
      if (traced) {
        const bb::LayerLedger& l = r.ledger;
        const double wall_ns = r.wall_s * 1e9;
        const double attributed =
            l.send_ns + l.poll_ns + l.drain_ns + l.advance_ns;
        const double unattributed = (wall_ns - attributed) / wall_ns;
        if (std::abs(unattributed) > kLedgerTolerance) {
          throw bb::GateFailure("ledger leaves " + bb::number(unattributed) +
                                " of the traced wall unattributed (tolerance " +
                                bb::number(kLedgerTolerance) + ")");
        }
      }
      pass.results.push_back(std::move(r));
    }
    return pass;
  };

  // The undamaged stream must give the same verdicts as the damaged one.
  std::uint64_t expected_digest = 0;
  bool have_digest = false;
  std::uint64_t damage_units = 0;
  for (const bb::Part& part : w.parts) {
    damage_units += part.injected.junk_runs + part.injected.replayed +
                    part.injected.flipped + part.injected.invalid_rssi;
  }
  if (damage_units > 0) {
    expected_digest =
        run_pass(bb::generate(spec, args.seed, /*damaged=*/false), false).digest;
    have_digest = true;
  }


  std::vector<std::vector<double>> latency_ms;  // one per untraced pass
  std::size_t latency_samples = 0;
  std::vector<double> throughput, untraced_wall, traced_wall;
  bb::LayerLedger ledger;  // sums over traced replays
  std::vector<bb::Span> last_spans;
  vp::sim::RateAverager rates;
  vp::wire::IngestServer::Stats rejects;  // first pass, summed over parts
  double worst_lost = 0.0;
  const std::size_t min_latency = bb::min_samples_for(spec.tail_percentile);

  const Clock::time_point start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  for (std::size_t i = 0;; ++i) {
    if (i >= 2 && elapsed() >= args.seconds &&
        (traced_run ? !traced_wall.empty() : latency_samples >= min_latency)) {
      break;
    }
    const bool traced = traced_run && i % 2 == 1;
    Pass pass = run_pass(w, traced);
    if (args.inject == "digest" && i == 1) pass.digest ^= 1;
    if (!have_digest) {
      expected_digest = pass.digest;
      have_digest = true;
    }
    bb::require_equal_digest(expected_digest, pass.digest,
                             traced ? "traced replay" : "repeated replay");
    double wall_s = 0.0;
    std::uint64_t beacons = 0;
    if (!traced) latency_ms.emplace_back();
    for (std::size_t k = 0; k < w.parts.size(); ++k) {
      bb::ReplayResult& r = pass.results[k];
      worst_lost = std::max(worst_lost, bb::lost_ratio(r, w.parts[k]));
      wall_s += r.wall_s;
      beacons += r.service.beacons_ingested;
      if (i == 0) {
        bb::score_into(rates, r, w.parts[k]);
        rejects.reject_bad_magic += r.wire.reject_bad_magic;
        rejects.reject_bad_checksum += r.wire.reject_bad_checksum;
        rejects.reject_replayed_seq += r.wire.reject_replayed_seq;
      }
      if (traced) {
        ledger.merge(r.ledger);
        last_spans = std::move(r.ledger.spans);
      } else {
        latency_samples += r.latency_ms.size();
        latency_ms.back().insert(latency_ms.back().end(), r.latency_ms.begin(),
                                 r.latency_ms.end());
      }
    }
    if (traced) {
      traced_wall.push_back(wall_s);
    } else {
      untraced_wall.push_back(wall_s);
      throughput.push_back(static_cast<double>(beacons) / wall_s);
    }
  }

  const bb::Quality q = bb::quality(rates);
  std::printf("# %s seed=%llu: %zu parts, %llu part replays, generate %.3f s\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              w.parts.size(), static_cast<unsigned long long>(attempted),
              w.generate_s);
  if (damage_units > 0) {
    bb::Injected all;
    std::uint64_t frames = 0, bytes = 0;
    for (const bb::Part& part : w.parts) {
      all.junk_runs += part.injected.junk_runs;
      all.junk_bytes += part.injected.junk_bytes;
      all.replayed += part.injected.replayed;
      all.flipped += part.injected.flipped;
      all.invalid_rssi += part.injected.invalid_rssi;
      frames += part.frames_sent;
      for (const bb::ConnectionInput& in : part.connections) {
        bytes += in.bytes.size();
      }
    }
    const double bad_frames =
        static_cast<double>(all.replayed + all.flipped + all.invalid_rssi);
    std::printf("# damage: %llu junk runs (%.2f%% of the bytes), %llu "
                "replayed, %llu flipped, %llu invalid-RSSI frames (%.2f%% of "
                "the %llu frames)\n",
                static_cast<unsigned long long>(all.junk_runs),
                100.0 * ratio(static_cast<double>(all.junk_bytes),
                              static_cast<double>(bytes)),
                static_cast<unsigned long long>(all.replayed),
                static_cast<unsigned long long>(all.flipped),
                static_cast<unsigned long long>(all.invalid_rssi),
                100.0 * ratio(bad_frames, static_cast<double>(frames)),
                static_cast<unsigned long long>(frames));
  }
  std::printf("# gates: conservation laws, flow, injected rejects, digest "
              "%016llx identical over every replay\n",
              static_cast<unsigned long long>(expected_digest));
  std::printf("# quality: DR %.4f FPR %.4f over %zu rounds; fused DR %.4f "
              "FPR %.4f over %zu epochs; lost_ratio %s\n",
              q.detection_rate, q.false_positive_rate, q.round_samples,
              q.fused_detection_rate, q.fused_false_positive_rate,
              q.epoch_samples, bb::number(worst_lost).c_str());
  if (spec.min_detection_rate >= 0) {
    if (q.detection_rate < spec.min_detection_rate ||
        q.false_positive_rate > spec.max_false_positive_rate) {
      throw bb::GateFailure(
          std::string("planted-label rates outside their floors: DR ") +
          bb::number(q.detection_rate) + " (floor " +
          bb::number(spec.min_detection_rate) + "), FPR " +
          bb::number(q.false_positive_rate) + " (ceiling " +
          bb::number(spec.max_false_positive_rate) + ")");
    }
  }

  std::vector<Metric> metrics;
  if (!traced_run) {
    const double p50 = bb::grouped_percentile(latency_ms, min_latency, 50);
    const double tail =
        bb::grouped_percentile(latency_ms, min_latency, spec.tail_percentile);
    std::printf("# verdict_ms_tail is p%g: median over groups of >= %zu "
                "samples (>= 10 above each group's p%g), %zu samples from %zu "
                "passes\n",
                spec.tail_percentile, min_latency, spec.tail_percentile,
                latency_samples, latency_ms.size());
    metrics = {
        {"beacons_per_s", bb::median(throughput), "beacons/s"},
        {"verdict_ms_p50", p50, "ms"},
        {"verdict_ms_tail", tail, "ms"},
        {"setup_s", bb::median(setups), "s"},
        {"peak_rss_mb", peak_mb, "MiB"},
        {"detection_rate", q.detection_rate, "ratio"},
        {"true_negative_rate", 1.0 - q.false_positive_rate, "ratio"},
        {"fused_detection_rate", q.fused_detection_rate, "ratio"},
        {"fused_true_negative_rate", 1.0 - q.fused_false_positive_rate,
         "ratio"},
        {"delivered_ratio", 1.0 - worst_lost, "ratio"},
    };
  } else {
    metrics = layer_metrics(w, ledger, rejects, traced_wall, untraced_wall);
    if (!args.ledger_out.empty()) write_ledger(args.ledger_out, last_spans);
  }
  for (const Metric& m : metrics) {
    std::printf("# %-30s %s %s\n", m.name.c_str(), bb::number(m.value).c_str(),
                m.unit.c_str());
  }
  std::cout << bb::result_json(true, attempted, 0, metrics) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const bb::GateFailure& failure) {
    std::cout.flush();
    std::fprintf(stderr, "beaconbench: gate failed: %s\n", failure.what());
    return 3;
  } catch (const std::exception& error) {
    std::cout.flush();
    std::fprintf(stderr, "beaconbench: error: %s\n", error.what());
    return 1;
  }
}
