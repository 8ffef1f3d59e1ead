// The closed-loop driver: one thread writes each connection's next chunk
// into an in-memory pipe, then polls, drains (which pumps the service)
// and advances fusion, until every connection has closed.
//
//   wire::make_pipe -> wire::IngestServer -> service::DetectionService
//     -> stream::StreamEngine -> core detector -> fusion::FusionEngine
//
// Untraced replays time only what the end-to-end metrics need. A traced
// replay additionally records a span around every call the driver makes
// into a layer (kept in memory) and reads the sums and counts the obs
// registry already keeps; nothing inside the library is added.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fusion/engine.h"
#include "service/service.h"
#include "wire/server.h"
#include "workloads.h"

namespace bb {

struct DeliveredRound {
  std::uint64_t session = 0;
  std::uint64_t round_id = 0;
  std::vector<vp::IdentityId> suspects;  // as delivered
  std::vector<vp::IdentityId> heard;     // identities in the round's pairs
};

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  // from the first frame written
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // index into the span list, -1 = top level
  std::int64_t round = -1;    // round id where the span serves one round
};

// Per-layer sums of one traced replay. Times in ns unless named otherwise.
struct LayerLedger {
  std::vector<Span> spans;
  double send_ns = 0, poll_ns = 0, drain_ns = 0, pump_ns = 0;
  double listener_ns = 0, observe_ns = 0, advance_ns = 0;
  std::uint64_t pumps = 0, observes = 0, advances = 0;
  std::vector<double> queue_wait_ms;  // one per round of a single-pump drain
  // Registry sums and counts read after the replay.
  double round_ns = 0, sweep_ns = 0, align_ns = 0, zscore_ns = 0;
  double dtw_ns = 0, minmax_ns = 0, confirm_ns = 0;
  std::uint64_t rounds = 0, align_n = 0, zscore_n = 0;
  std::uint64_t dtw_n = 0, minmax_n = 0, confirm_n = 0;
  std::uint64_t pairs_total = 0, pairs_comparable = 0;
  std::uint64_t dtw_cells = 0, dtw_solves = 0;
  // The replay's own totals, the denominators of the per-unit costs.
  std::uint64_t frames_sent = 0, frames_received = 0;
  std::uint64_t beacons_delivered = 0, rounds_executed = 0;

  // Adds every sum, count and sample of `other` (not its spans).
  void merge(const LayerLedger& other);
};

struct ReplayResult {
  double wall_s = 0.0;  // first frame written -> last verdict delivered
  std::vector<double> latency_ms;  // one per delivered round
  std::vector<DeliveredRound> rounds;
  std::vector<vp::fusion::FusedEpoch> epochs;
  vp::wire::IngestServer::Stats wire;
  vp::service::DetectionService::Stats service;
  vp::fusion::FusionEngine::Stats fusion;
  std::uint64_t wire_frames_buffered = 0;
  std::uint64_t service_queued_rounds = 0;
  std::uint64_t service_sessions_active = 0;
  std::uint64_t fusion_rounds_pending = 0;
  LayerLedger ledger;  // filled by traced replays only
};

// Width of the service pool: the library default, 1 (serial pumps). On a
// shared 4-vCPU host a 4-wide pool put 15-40% run-to-run spread (IQR /
// median) on latency and throughput; serial runs stay under 5%.
std::size_t pool_width();

// Seconds to construct the system under test (server, backend service,
// fusion, connections), averaged over a batch of constructions.
double time_setup(std::size_t connections);

ReplayResult replay(const Part& part, bool traced);

// Capture pass: every observer's delivered frames through a standalone
// StreamEngine whose rounds are deferred and dropped. Ingest calls are
// timed in batches; the calls that fire the deferral hook (window cut +
// Eq. 9 density) are timed one by one.
struct StreamCapture {
  double ingest_ns_per_beacon = 0.0;
  double prepare_us_per_round = 0.0;
  std::uint64_t beacons = 0;
  std::uint64_t rounds = 0;
};
StreamCapture capture_stream(const Workload& workload);

}  // namespace bb
