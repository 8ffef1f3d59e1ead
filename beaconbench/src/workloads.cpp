#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "common/rng.h"
#include "sim/replay_source.h"
#include "sim/world.h"
#include "wire/client.h"

namespace bb {

namespace {

struct Fleet {
  std::vector<vp::sim::FleetBeacon> beacons;  // sorted (time, observer, id)
  std::vector<std::uint64_t> observers;       // sorted
  std::unordered_map<vp::IdentityId, bool> illegitimate;
  double end_time_s = 0.0;
};

Fleet highway_fleet(std::uint64_t seed) {
  vp::sim::ScenarioConfig config;
  config.density_per_km = 12.0;
  config.sim_time_s = 40.0;  // two detection rounds per observer
  config.seed = seed;
  vp::sim::World world(config);
  world.run();
  Fleet fleet;
  const std::vector<vp::NodeId> normals = world.normal_node_ids();
  fleet.beacons = vp::sim::replay_from_world(world, normals,
                                             config.sim_time_s + 1.0, 1);
  fleet.observers.assign(normals.begin(), normals.end());
  std::sort(fleet.observers.begin(), fleet.observers.end());
  const vp::sim::GroundTruth& truth = world.truth();
  for (const vp::sim::FleetBeacon& b : fleet.beacons) {
    if (truth.known(b.id)) fleet.illegitimate[b.id] = truth.is_illegitimate(b.id);
  }
  fleet.end_time_s = world.detection_times().back();
  return fleet;
}

// One radio as heard by one observer: a level, an AR(1) shadowing walk
// stepped once per beacon period, and one constant TX offset per identity
// it beacons under (Assumption 3). A Sybil radio's identities transmit
// back-to-back, so they sample the same walk step; each reception gets
// independent measurement noise.
void emit_radio(vp::Rng& rng, std::uint64_t observer,
                const std::vector<vp::IdentityId>& identities,
                double rate_hz, double duration_s,
                std::vector<vp::sim::FleetBeacon>& out) {
  const double period = 1.0 / rate_hz;
  const double level = -55.0 - rng.uniform(0.0, 30.0);
  std::vector<double> offsets;
  for (std::size_t i = 0; i < identities.size(); ++i) {
    offsets.push_back(rng.uniform(-3.0, 3.0));
  }
  double shadow = rng.normal(0.0, 3.0);
  const double phase = rng.uniform(0.0, 0.8 * period);
  for (double t = phase; t < duration_s - period; t += period) {
    shadow = 0.9 * shadow + rng.normal(0.0, 1.5);
    const double start = t + rng.uniform(0.0, 0.1 * period);
    for (std::size_t i = 0; i < identities.size(); ++i) {
      const double rssi =
          level + offsets[i] + shadow + rng.normal(0.0, 0.5);
      out.push_back({start + 0.002 * static_cast<double>(i), observer,
                     identities[i], rssi});
    }
  }
}

Fleet jam_fleet(std::uint64_t seed) {
  constexpr std::size_t kObservers = 4;
  constexpr std::size_t kIdentities = 48;
  constexpr std::size_t kAttackers = 4;
  constexpr std::size_t kSybilsPerAttacker = 3;
  constexpr double kDuration = 40.0;
  vp::Rng rng(vp::mix64(seed, vp::hash64("jam")));

  // Identity ids 1..48 dealt to radios in a seeded order, so the Sybil
  // groups are not contiguous id ranges.
  std::vector<vp::IdentityId> ids(kIdentities);
  for (std::size_t i = 0; i < kIdentities; ++i) {
    ids[i] = static_cast<vp::IdentityId>(i + 1);
  }
  std::shuffle(ids.begin(), ids.end(), rng.engine());
  std::vector<std::vector<vp::IdentityId>> radios;
  Fleet fleet;
  std::size_t next = 0;
  for (std::size_t a = 0; a < kAttackers; ++a) {
    radios.emplace_back(ids.begin() + next,
                        ids.begin() + next + kSybilsPerAttacker);
    for (vp::IdentityId id : radios.back()) fleet.illegitimate[id] = true;
    next += kSybilsPerAttacker;
  }
  for (; next < kIdentities; ++next) {
    radios.push_back({ids[next]});
    fleet.illegitimate[ids[next]] = false;
  }

  for (std::uint64_t observer = 1; observer <= kObservers; ++observer) {
    fleet.observers.push_back(observer);
    vp::Rng channel = rng.fork("observer" + std::to_string(observer));
    for (const std::vector<vp::IdentityId>& radio : radios) {
      emit_radio(channel, observer, radio, 10.0, kDuration, fleet.beacons);
    }
  }
  vp::sim::sort_fleet(fleet.beacons);
  fleet.end_time_s = kDuration;
  return fleet;
}

Fleet fanin_fleet(std::uint64_t seed) {
  constexpr std::size_t kGroups = 64;
  constexpr std::size_t kObserversPerGroup = 4;
  constexpr double kDuration = 60.0;
  vp::Rng rng(vp::mix64(seed, vp::hash64("fanin")));

  // Exactly half the groups are attacked; which ones is seeded.
  std::vector<bool> attacked(kGroups, false);
  std::fill(attacked.begin(), attacked.begin() + kGroups / 2, true);
  std::shuffle(attacked.begin(), attacked.end(), rng.engine());

  Fleet fleet;
  for (std::size_t g = 0; g < kGroups; ++g) {
    const auto base = static_cast<vp::IdentityId>(4 * g);
    std::vector<std::vector<vp::IdentityId>> radios;
    if (attacked[g]) {
      radios = {{base + 1}, {base + 2}, {base + 3, base + 4}};
      fleet.illegitimate[base + 3] = true;
      fleet.illegitimate[base + 4] = true;
    } else {
      radios = {{base + 1}, {base + 2}, {base + 3}, {base + 4}};
      fleet.illegitimate[base + 3] = false;
      fleet.illegitimate[base + 4] = false;
    }
    fleet.illegitimate[base + 1] = false;
    fleet.illegitimate[base + 2] = false;
    for (std::size_t k = 0; k < kObserversPerGroup; ++k) {
      const std::uint64_t observer = kObserversPerGroup * g + k + 1;
      fleet.observers.push_back(observer);
      vp::Rng channel = rng.fork("observer" + std::to_string(observer));
      for (const std::vector<vp::IdentityId>& radio : radios) {
        emit_radio(channel, observer, radio, 10.0, kDuration, fleet.beacons);
      }
    }
  }
  vp::sim::sort_fleet(fleet.beacons);
  fleet.end_time_s = kDuration;
  return fleet;
}

std::vector<vp::wire::Frame> decode_all(const std::vector<std::uint8_t>& bytes) {
  vp::wire::FrameDecoder decoder(bytes.size() + vp::wire::kFrameBytes);
  if (decoder.push(bytes) != bytes.size()) {
    throw std::runtime_error("clean stream does not fit the decoder");
  }
  std::vector<vp::wire::Frame> frames;
  vp::wire::Frame frame;
  for (;;) {
    const vp::wire::DecodeStatus status = decoder.next(frame);
    if (status == vp::wire::DecodeStatus::kNeedMore) break;
    if (status != vp::wire::DecodeStatus::kFrame) {
      throw std::runtime_error("clean stream failed to decode");
    }
    frames.push_back(frame);
  }
  return frames;
}

// A byte range the driver writes as a whole: optional damage followed by
// exactly one frame the server delivers.
struct Unit {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t delivered_index = 0;
  bool invalid_rssi = false;  // the delivered frame is a spliced bad reading
};

class StreamBuilder {
 public:
  StreamBuilder(ConnectionInput& conn, vp::Rng* damage, Injected& injected,
                std::uint64_t& frames_sent)
      : conn_(conn), damage_(damage), injected_(injected),
        frames_sent_(frames_sent) {}

  // The frames the server decodes and delivers, in order: the valid
  // frames plus the invalid-RSSI beacons.
  const std::vector<vp::wire::Frame>& delivered() const { return delivered_; }

  void add(const vp::wire::Frame& frame) {
    const std::size_t begin = conn_.bytes.size();
    if (damage_ != nullptr && frame.type == vp::wire::FrameType::kBeacon) {
      splice_damage();
    }
    append_frame(frame);
    units_.push_back({begin, conn_.bytes.size(), delivered_.size() - 1});
    if (damage_ != nullptr && frame.type == vp::wire::FrameType::kBeacon &&
        damage_->chance(kRate)) {
      // Well-formed, checksum-valid, but carrying a reading the stream
      // validation front must shed; stamped with the valid beacon's time.
      static constexpr double kBad[] = {
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(), 400.0, -400.0};
      vp::wire::Frame bad = frame;
      bad.rssi_dbm = kBad[damage_->uniform_int(0, 4)];
      const std::size_t bad_begin = conn_.bytes.size();
      append_frame(bad);
      units_.push_back(
          {bad_begin, conn_.bytes.size(), delivered_.size() - 1, true});
      ++injected_.invalid_rssi;
    }
  }

  const std::vector<Unit>& units() const { return units_; }

 private:
  // Per damage class, per valid beacon: the rate of bench/wire_throughput's
  // corrupted-stream config (one flipped frame in 50 beacons), applied to
  // each class.
  static constexpr double kRate = 1.0 / 50.0;

  void append_frame(const vp::wire::Frame& frame) {
    vp::wire::Frame stamped = frame;
    stamped.seq = next_seq_++;
    frame_offsets_.push_back(conn_.bytes.size());
    vp::wire::encode_frame(stamped, conn_.bytes);
    delivered_.push_back(stamped);
    ++frames_sent_;
  }

  void splice_damage() {
    vp::Rng& rng = *damage_;
    if (rng.chance(kRate)) {
      // Junk without any 'V', so the decoder's resync finds no partial
      // magic inside it: exactly one bad_magic reject per run.
      const auto length = rng.uniform_int(1, 64);
      for (std::int64_t i = 0; i < length; ++i) {
        auto byte = static_cast<std::uint8_t>(rng.uniform_int(0, 254));
        if (byte >= 'V') ++byte;
        conn_.bytes.push_back(byte);
      }
      ++injected_.junk_runs;
      injected_.junk_bytes += static_cast<std::uint64_t>(length);
    }
    if (rng.chance(kRate)) {
      copy_earlier_frame(rng, /*flip=*/false);
      ++injected_.replayed;
    }
    if (rng.chance(kRate)) {
      copy_earlier_frame(rng, /*flip=*/true);
      ++injected_.flipped;
    }
  }

  // A verbatim copy of an earlier frame is rejected as a replay (its seq
  // is behind the decoder); one with a flipped byte after the version
  // field fails the checksum first.
  void copy_earlier_frame(vp::Rng& rng, bool flip) {
    const auto back = rng.uniform_int(
        1, static_cast<std::int64_t>(std::min<std::size_t>(
               frame_offsets_.size(), 64)));
    const std::size_t offset =
        frame_offsets_[frame_offsets_.size() - static_cast<std::size_t>(back)];
    const std::size_t at = conn_.bytes.size();
    conn_.bytes.insert(conn_.bytes.end(), conn_.bytes.begin() + offset,
                       conn_.bytes.begin() + offset + vp::wire::kFrameBytes);
    if (flip) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(6, vp::wire::kFramePayloadBytes - 1));
      conn_.bytes[at + pos] ^=
          static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    ++frames_sent_;
  }

  ConnectionInput& conn_;
  vp::Rng* damage_;
  Injected& injected_;
  std::uint64_t& frames_sent_;
  std::uint64_t next_seq_ = 1;
  std::vector<std::size_t> frame_offsets_;
  std::vector<vp::wire::Frame> delivered_;
  std::vector<Unit> units_;
};

// Groups whole units into chunks of at most kChunkBytes and records, per
// observer, the chunks that carry its OPEN frame and its valid beacons.
void chunk_stream(const std::vector<Unit>& units,
                  const std::vector<vp::wire::Frame>& delivered,
                  std::uint32_t connection, Part& part, ConnectionInput& conn) {
  std::size_t chunk_begin = 0;
  for (const Unit& unit : units) {
    if (unit.end - chunk_begin > kChunkBytes) {
      conn.chunk_ends.push_back(static_cast<std::uint32_t>(unit.begin));
      chunk_begin = unit.begin;
    }
    const vp::wire::Frame& f = delivered[unit.delivered_index];
    const bool open = f.type == vp::wire::FrameType::kOpen;
    if (!open && (f.type != vp::wire::FrameType::kBeacon || unit.invalid_rssi)) {
      continue;
    }
    const auto chunk = static_cast<std::uint32_t>(conn.chunk_ends.size());
    std::vector<HeardChunk>& heard = part.heard[part.observer_index(f.observer)];
    if (open) {
      heard.push_back({-std::numeric_limits<double>::infinity(), connection,
                       chunk});
    } else if (heard.back().chunk != chunk) {
      heard.push_back({f.time_s, connection, chunk});
    }
  }
  conn.chunk_ends.push_back(static_cast<std::uint32_t>(conn.bytes.size()));
}

}  // namespace

std::size_t Part::observer_index(std::uint64_t observer) const {
  const auto it = std::lower_bound(observers.begin(), observers.end(), observer);
  if (it == observers.end() || *it != observer) {
    throw std::runtime_error("unknown observer " + std::to_string(observer));
  }
  return static_cast<std::size_t>(it - observers.begin());
}

const std::vector<WorkloadSpec>& workload_specs() {
  // Why each workload exists is recorded in BENCHMARK.json and README.md.
  static const std::vector<WorkloadSpec> specs = {
      {"highway", 24, 90.0, -1.0, -1.0},
      {"jam", 1, 75.0, 0.90, 0.10},
      {"fanin", 1, 99.0, 0.90, 0.40},
  };
  return specs;
}

const WorkloadSpec* find_spec(const std::string& name) {
  for (const WorkloadSpec& spec : workload_specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

Workload generate(const WorkloadSpec& spec, std::uint64_t seed,
                  bool damaged) {
  const auto start = std::chrono::steady_clock::now();
  const std::string name = spec.name;
  Workload w;
  w.spec = spec;
  w.seed = seed;
  for (std::size_t k = 0; k < spec.parts; ++k) {
    const std::uint64_t part_seed = k == 0 ? seed : vp::mix64(seed, k);
    Fleet fleet = name == "highway" ? highway_fleet(part_seed)
                  : name == "jam"   ? jam_fleet(part_seed)
                                    : fanin_fleet(part_seed);
    Part part;
    part.observers = fleet.observers;
    part.heard.resize(part.observers.size());
    part.illegitimate = std::move(fleet.illegitimate);

    const bool inject = damaged && name == "fanin";
    vp::Rng damage_rng(vp::mix64(part_seed, vp::hash64("damage")));
    vp::wire::FleetStreamOptions options;
    options.close_time_s = fleet.end_time_s;
    for (std::size_t c = 0; c < kConnections; ++c) {
      std::vector<std::uint64_t> slice;
      for (std::size_t i = c; i < part.observers.size(); i += kConnections) {
        slice.push_back(part.observers[i]);
      }
      if (slice.empty()) continue;
      ConnectionInput conn;
      StreamBuilder builder(conn, inject ? &damage_rng : nullptr,
                            part.injected, part.frames_sent);
      for (const vp::wire::Frame& frame : decode_all(
               vp::wire::encode_fleet_stream(fleet.beacons, slice, options))) {
        builder.add(frame);
        if (frame.type == vp::wire::FrameType::kBeacon) ++part.valid_beacons;
      }
      chunk_stream(builder.units(), builder.delivered(),
                   static_cast<std::uint32_t>(part.connections.size()), part,
                   conn);
      part.frames_delivered += builder.delivered().size();
      part.connections.push_back(std::move(conn));
    }
    w.parts.push_back(std::move(part));
  }
  w.generate_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  return w;
}

}  // namespace bb
