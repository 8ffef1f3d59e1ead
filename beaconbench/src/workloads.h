// Benchmark inputs: every workload is generated from the seed into the
// exact byte streams the closed-loop driver writes, one per connection,
// plus the ground truth and the damage counts the gates check against.
//
//   highway — 24 Table V highways (sim::World, 12 vhls/km, 40 s) per
//             seed: every normal vehicle observes, spread round-robin over
//             four connections.
//   jam     — four stationary observers (ids 1-4) each hearing the same
//             48 identities at 10 Hz; planted Sybil groups share one
//             AR(1) shadowing walk per attacker radio.
//   fanin   — 256 observers in groups of four, each group hearing its own
//             four identities; half the groups contain a radio sending a
//             Sybil pair. Damage (junk runs, replayed frames, flipped
//             payload bytes, non-finite / out-of-range RSSI beacons) is
//             spliced between the valid frames.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"

namespace bb {

// Bytes one connection writes per loop iteration at most: the in-memory
// pipe's capacity and the server's per-poll read budget, so one poll
// always takes a whole chunk and a chunk never splits a damage run.
inline constexpr std::size_t kChunkBytes = 16 * 1024;

// Connections per fleet (observers are dealt to them round-robin).
inline constexpr std::size_t kConnections = 4;

struct Injected {
  std::uint64_t junk_runs = 0;     // -> wire.reject.bad_magic
  std::uint64_t junk_bytes = 0;    // bytes in those runs
  std::uint64_t replayed = 0;      // -> wire.reject.replayed_seq
  std::uint64_t flipped = 0;       // -> wire.reject.bad_checksum
  std::uint64_t invalid_rssi = 0;  // -> service.beacons_shed_invalid
};

// One chunk that carries valid beacons of an observer, keyed by the time
// of the first of them. A round's latency anchor is the chunk holding the
// observer's last valid beacon before the round's cut: the last entry
// whose first_time_s is before the cut. The chunk of the observer's OPEN
// frame leads the list (first_time_s = -inf) and stands in when it heard
// nothing before the cut.
struct HeardChunk {
  double first_time_s = 0.0;
  std::uint32_t connection = 0;
  std::uint32_t chunk = 0;
};

struct ConnectionInput {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> chunk_ends;  // exclusive byte offsets
};

struct WorkloadSpec {
  const char* name;
  // Independent fleets per run, each replayed through its own system:
  // several highway worlds average out one world's geometry.
  std::size_t parts;
  // Fixed tail percentile for verdict_ms_tail; a run keeps replaying until
  // it has a group of samples with at least 10 above it.
  double tail_percentile;
  // Planted-label floors (jam, fanin); negative = not gated.
  double min_detection_rate;
  double max_false_positive_rate;
};

// One fleet: its connections' byte streams, ground truth and counts.
struct Part {
  std::vector<ConnectionInput> connections;
  std::vector<std::uint64_t> observers;  // sorted; index = observer_index
  std::vector<std::vector<HeardChunk>> heard;  // per observer, ascending
  // Ground truth: identities listed here are known; true = illegitimate.
  std::unordered_map<vp::IdentityId, bool> illegitimate;
  Injected injected;
  std::uint64_t valid_beacons = 0;     // undamaged beacon frames sent
  std::uint64_t frames_delivered = 0;  // frames the server must deliver
  std::uint64_t frames_sent = 0;       // every frame-sized unit written

  std::size_t observer_index(std::uint64_t observer) const;
};

struct Workload {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  std::vector<Part> parts;
  double generate_s = 0.0;  // wall time spent building the parts
};

const std::vector<WorkloadSpec>& workload_specs();
const WorkloadSpec* find_spec(const std::string& name);

// Builds a workload from its seed. `damaged` = false leaves out every
// spliced damage unit (fanin only), giving the undamaged stream whose
// verdict digest the damaged run must reproduce.
Workload generate(const WorkloadSpec& spec, std::uint64_t seed,
                  bool damaged = true);

}  // namespace bb
