// Correctness gates. A failed gate throws GateFailure; the command then
// exits non-zero without printing a result, so a broken run is never
// reported as a number.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay.h"
#include "workloads.h"

namespace bb {

struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// The replay's end state as registry-named counters and gauges, so the
// laws can be read from obs::conservation_laws() — the same table the
// live HealthMonitor checks.
std::map<std::string, double> law_inputs(const ReplayResult& result);

// Checks every law in obs::conservation_laws() whose terms are all in
// `inputs`; the wire frame, service beacon/round/session and fusion round
// laws must be among them. Returns the names of the laws checked.
std::vector<std::string> check_laws(const std::map<std::string, double>& inputs);

// Cross-layer accounting: every beacon frame written reaches the
// service, and every executed round reaches the listener and fusion.
void check_flow(const ReplayResult& result, const Part& part);

// Every injected damage class is rejected exactly as counted, per
// reason, and nothing else is rejected.
void check_injected(const ReplayResult& result, const Injected& injected);

// FNV-1a 64 over (session, round_id, sorted suspects) for every delivered
// round in (session, round_id) order, then every closed fusion epoch's
// (index, identity, accused) verdicts. Independent of delivery order.
std::uint64_t verdict_digest(const std::vector<DeliveredRound>& rounds,
                             const std::vector<vp::fusion::FusedEpoch>& epochs);

void require_equal_digest(std::uint64_t expected, std::uint64_t actual,
                          const std::string& what);

}  // namespace bb
