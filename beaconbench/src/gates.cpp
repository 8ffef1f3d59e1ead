#include "gates.h"

#include <algorithm>
#include <cstdio>

#include "obs/telemetry.h"

namespace bb {

namespace {

class Fnv {
 public:
  void add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

void require(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

std::string eq(const char* name, std::uint64_t got, std::uint64_t want) {
  return std::string(name) + ": got " + std::to_string(got) + ", expected " +
         std::to_string(want);
}

}  // namespace

std::map<std::string, double> law_inputs(const ReplayResult& r) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"wire.frames_received", d(r.wire.frames_received)},
      {"wire.frames_ingested", d(r.wire.frames_ingested)},
      {"wire.frames_shed_invalid", d(r.wire.frames_shed_invalid)},
      {"wire.frames_shed_backpressure", d(r.wire.frames_shed_backpressure)},
      {"wire.frames_buffered", d(r.wire_frames_buffered)},
      {"service.beacons_offered", d(r.service.beacons_offered)},
      {"service.beacons_ingested", d(r.service.beacons_ingested)},
      {"service.beacons_shed_session_cap", d(r.service.beacons_shed_session_cap)},
      {"service.beacons_shed_rate_limited",
       d(r.service.beacons_shed_rate_limited)},
      {"service.beacons_shed_identity_cap",
       d(r.service.beacons_shed_identity_cap)},
      {"service.beacons_shed_out_of_order",
       d(r.service.beacons_shed_out_of_order)},
      {"service.beacons_shed_invalid", d(r.service.beacons_shed_invalid)},
      {"service.beacons_shed_conditioned",
       d(r.service.beacons_shed_conditioned)},
      {"service.rounds_prepared", d(r.service.rounds_prepared)},
      {"service.rounds_executed", d(r.service.rounds_executed)},
      {"service.rounds_shed_queue_full", d(r.service.rounds_shed_queue_full)},
      {"service.rounds_shed_closed", d(r.service.rounds_shed_closed)},
      {"service.queued_rounds", d(r.service_queued_rounds)},
      {"service.sessions_opened", d(r.service.sessions_opened)},
      {"service.sessions_closed", d(r.service.sessions_closed)},
      {"service.sessions_evicted_idle", d(r.service.sessions_evicted_idle)},
      {"service.sessions_active", d(r.service_sessions_active)},
      {"fusion.rounds_delivered", d(r.fusion.rounds_delivered)},
      {"fusion.rounds_fused", d(r.fusion.rounds_fused)},
      {"fusion.rounds_expired", d(r.fusion.rounds_expired)},
      {"fusion.rounds_pending", d(r.fusion_rounds_pending)},
  };
}

std::vector<std::string> check_laws(
    const std::map<std::string, double>& inputs) {
  std::vector<std::string> checked;
  for (const vp::obs::ConservationLaw& law : vp::obs::conservation_laws()) {
    const auto has = [&](const char* name) { return inputs.count(name) > 0; };
    const bool applies =
        std::all_of(law.lhs.begin(), law.lhs.end(), has) &&
        std::all_of(law.rhs.begin(), law.rhs.end(), has) &&
        std::all_of(law.rhs_gauges.begin(), law.rhs_gauges.end(), has);
    if (!applies) continue;
    double lhs = 0.0;
    double rhs = 0.0;
    for (const char* name : law.lhs) lhs += inputs.at(name);
    for (const char* name : law.rhs) rhs += inputs.at(name);
    for (const char* name : law.rhs_gauges) rhs += inputs.at(name);
    if (law.skip_if_rhs_zero && rhs == 0.0) continue;
    require(lhs == rhs, std::string(law.name) + " does not balance: " +
                            std::to_string(lhs) + " != " + std::to_string(rhs));
    checked.emplace_back(law.name);
  }
  for (const char* name :
       {"conservation.wire.frames", "conservation.service.beacons",
        "conservation.service.rounds", "conservation.service.sessions",
        "conservation.fusion.rounds"}) {
    require(std::find(checked.begin(), checked.end(), name) != checked.end(),
            std::string("law not checked: ") + name);
  }
  return checked;
}

void check_flow(const ReplayResult& r, const Part& w) {
  require(r.wire.frames_ingested == w.frames_delivered,
          eq("wire.frames_ingested", r.wire.frames_ingested,
             w.frames_delivered));
  require(r.wire.beacons_ingested + r.wire.controls_ingested ==
              r.wire.frames_ingested,
          "wire beacons + controls != frames ingested");
  require(r.wire.beacons_ingested == w.valid_beacons + w.injected.invalid_rssi,
          eq("wire.beacons_ingested", r.wire.beacons_ingested,
             w.valid_beacons + w.injected.invalid_rssi));
  require(r.service.beacons_offered == r.wire.beacons_ingested,
          eq("service.beacons_offered", r.service.beacons_offered,
             r.wire.beacons_ingested));
  require(r.service.rounds_executed == r.rounds.size(),
          eq("rounds at the listener", r.rounds.size(),
             r.service.rounds_executed));
  require(r.fusion.rounds_delivered == r.rounds.size(),
          eq("fusion.rounds_delivered", r.fusion.rounds_delivered,
             r.rounds.size()));
  require(r.latency_ms.size() == r.rounds.size(),
          "a delivered round has no latency sample");
  require(r.wire.connections_closed == w.connections.size() &&
              r.wire.truncated_tails == 0,
          "a connection did not close cleanly");
}

void check_injected(const ReplayResult& r, const Injected& inj) {
  require(r.wire.reject_bad_magic == inj.junk_runs,
          eq("wire.reject.bad_magic", r.wire.reject_bad_magic, inj.junk_runs));
  require(r.wire.reject_bad_checksum == inj.flipped,
          eq("wire.reject.bad_checksum", r.wire.reject_bad_checksum,
             inj.flipped));
  require(r.wire.reject_replayed_seq == inj.replayed,
          eq("wire.reject.replayed_seq", r.wire.reject_replayed_seq,
             inj.replayed));
  require(r.wire.reject_bad_version == 0 && r.wire.reject_bad_type == 0,
          "unexpected bad_version / bad_type rejects");
  require(r.wire.frames_shed_invalid ==
              inj.junk_runs + inj.flipped + inj.replayed,
          eq("wire.frames_shed_invalid", r.wire.frames_shed_invalid,
             inj.junk_runs + inj.flipped + inj.replayed));
  require(r.wire.frames_shed_backpressure == 0,
          eq("wire.frames_shed_backpressure", r.wire.frames_shed_backpressure,
             0));
  require(r.service.beacons_shed_invalid == inj.invalid_rssi,
          eq("service.beacons_shed_invalid", r.service.beacons_shed_invalid,
             inj.invalid_rssi));
}

std::uint64_t verdict_digest(const std::vector<DeliveredRound>& rounds,
                             const std::vector<vp::fusion::FusedEpoch>& epochs) {
  std::vector<const DeliveredRound*> order;
  for (const DeliveredRound& r : rounds) order.push_back(&r);
  std::sort(order.begin(), order.end(),
            [](const DeliveredRound* a, const DeliveredRound* b) {
              return a->session != b->session ? a->session < b->session
                                              : a->round_id < b->round_id;
            });
  Fnv fnv;
  for (const DeliveredRound* r : order) {
    std::vector<vp::IdentityId> suspects = r->suspects;
    std::sort(suspects.begin(), suspects.end());
    fnv.add(r->session);
    fnv.add(r->round_id);
    fnv.add(suspects.size());
    for (vp::IdentityId id : suspects) fnv.add(id);
  }
  std::vector<const vp::fusion::FusedEpoch*> epoch_order;
  for (const vp::fusion::FusedEpoch& e : epochs) epoch_order.push_back(&e);
  std::sort(epoch_order.begin(), epoch_order.end(),
            [](const auto* a, const auto* b) { return a->index < b->index; });
  for (const vp::fusion::FusedEpoch* e : epoch_order) {
    fnv.add(static_cast<std::uint64_t>(e->index));
    fnv.add(e->verdicts.size());
    for (const vp::fusion::FusedVerdict& v : e->verdicts) {
      fnv.add(v.id);
      fnv.add(v.accused ? 1 : 0);
    }
  }
  return fnv.value();
}

void require_equal_digest(std::uint64_t expected, std::uint64_t actual,
                          const std::string& what) {
  require(expected == actual, "verdict digest differs (" + what +
                                  "): " + hex(actual) + " != " + hex(expected));
}

}  // namespace bb
