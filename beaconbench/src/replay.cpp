#include "replay.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/runtime.h"
#include "stream/engine.h"
#include "wire/frame.h"
#include "wire/transport.h"

namespace bb {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}


// The system under test, built in place: the server and the service's
// callback hold addresses into it.
struct System {
  vp::service::DetectionService service;
  vp::fusion::FusionEngine fusion;
  vp::wire::IngestServer server;
  std::vector<std::unique_ptr<vp::wire::Connection>> clients;

  explicit System(std::size_t connections)
      : service(vp::service::ServiceConfig{}),
        fusion(vp::fusion::FusionConfig{}),
        server(vp::wire::IngestServerConfig{}, {&service}) {
    for (std::size_t i = 0; i < connections; ++i) {
      vp::wire::PipePair pipe = vp::wire::make_pipe(kChunkBytes);
      server.add_connection(std::move(pipe.server));
      clients.push_back(std::move(pipe.client));
    }
  }
  System(const System&) = delete;
  System& operator=(const System&) = delete;
};

// The frames the server delivers from one connection's bytes, decoded up
// front so the capture pass times only the engine calls.
std::vector<vp::wire::Frame> delivered_frames(const ConnectionInput& in) {
  vp::wire::FrameDecoder decoder(in.bytes.size() + vp::wire::kFrameBytes);
  decoder.push(in.bytes);
  std::vector<vp::wire::Frame> frames;
  vp::wire::Frame frame;
  for (vp::wire::DecodeStatus status = decoder.next(frame);
       status != vp::wire::DecodeStatus::kNeedMore;
       status = decoder.next(frame)) {
    if (status == vp::wire::DecodeStatus::kFrame) frames.push_back(frame);
  }
  return frames;
}

void read_registry(LayerLedger& ledger) {
  const auto histograms = vp::obs::registry().histograms();
  const auto counters = vp::obs::registry().counters();
  const auto hist = [&](const char* name, double& sum, std::uint64_t* count) {
    const auto it = histograms.find(name);
    if (it == histograms.end()) return;
    sum += it->second.sum;
    if (count != nullptr) *count += it->second.count;
  };
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  hist("stream.round_ns", ledger.round_ns, &ledger.rounds);
  hist("comparison.sweep_ns", ledger.sweep_ns, nullptr);  // per pair below
  hist("comparison.pair_cut_align_ns", ledger.align_ns, &ledger.align_n);
  hist("comparison.pair_zscore_ns", ledger.zscore_ns, &ledger.zscore_n);
  hist("comparison.pair_dtw_ns", ledger.dtw_ns, &ledger.dtw_n);
  hist("comparison.minmax_ns", ledger.minmax_ns, &ledger.minmax_n);
  hist("detect.confirmation_ns", ledger.confirm_ns, &ledger.confirm_n);
  ledger.pairs_total += counter("comparison.pairs_total");
  ledger.pairs_comparable += counter("comparison.pairs_comparable");
  ledger.dtw_cells += counter("dtw.cells_expanded");
  ledger.dtw_solves += counter("dtw.dp_solves");
}

}  // namespace

void LayerLedger::merge(const LayerLedger& o) {
  send_ns += o.send_ns;
  poll_ns += o.poll_ns;
  drain_ns += o.drain_ns;
  pump_ns += o.pump_ns;
  listener_ns += o.listener_ns;
  observe_ns += o.observe_ns;
  advance_ns += o.advance_ns;
  pumps += o.pumps;
  observes += o.observes;
  advances += o.advances;
  queue_wait_ms.insert(queue_wait_ms.end(), o.queue_wait_ms.begin(),
                       o.queue_wait_ms.end());
  round_ns += o.round_ns;
  sweep_ns += o.sweep_ns;
  align_ns += o.align_ns;
  zscore_ns += o.zscore_ns;
  dtw_ns += o.dtw_ns;
  minmax_ns += o.minmax_ns;
  confirm_ns += o.confirm_ns;
  rounds += o.rounds;
  align_n += o.align_n;
  zscore_n += o.zscore_n;
  dtw_n += o.dtw_n;
  minmax_n += o.minmax_n;
  confirm_n += o.confirm_n;
  pairs_total += o.pairs_total;
  pairs_comparable += o.pairs_comparable;
  dtw_cells += o.dtw_cells;
  dtw_solves += o.dtw_solves;
  frames_sent += o.frames_sent;
  frames_received += o.frames_received;
  beacons_delivered += o.beacons_delivered;
  rounds_executed += o.rounds_executed;
}

std::size_t pool_width() { return vp::service::ServiceConfig{}.threads; }

double time_setup(std::size_t connections) {
  // Several systems back to back, so one sample is not a single few-µs
  // reading.
  constexpr std::size_t kSystems = 16;
  std::vector<std::unique_ptr<System>> systems;
  systems.reserve(kSystems);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < kSystems; ++i) {
    systems.push_back(std::make_unique<System>(connections));
  }
  const auto end = Clock::now();
  return static_cast<double>(ns_between(start, end)) * 1e-9 /
         static_cast<double>(kSystems);
}

ReplayResult replay(const Part& part, bool traced) {
  ReplayResult result;
  LayerLedger& ledger = result.ledger;
  if (traced) {
    vp::obs::registry().reset();
    vp::obs::enable();
  }

  auto system = std::make_unique<System>(part.connections.size());
  vp::wire::IngestServer& server = system->server;
  vp::fusion::FusionEngine& fusion = system->fusion;
  vp::obs::Histogram* pump_hist =
      traced ? &vp::obs::registry().histogram("service.pump_ns") : nullptr;

  // When each chunk was written (ns since the first); -1 = not yet.
  std::vector<std::vector<std::int64_t>> written;
  for (const ConnectionInput& in : part.connections) {
    written.emplace_back(in.chunk_ends.size(), -1);
  }
  std::vector<Span>& spans = ledger.spans;
  // Traced bookkeeping for the drain in progress. A pump delivers its
  // rounds right after running them, so the first callback that sees the
  // registry's pump count move marks the end of a new pump.
  std::int32_t drain_span = -1;
  vp::obs::HistogramSnapshot pumps_seen;  // service.pump_ns seen so far
  std::int64_t delivery_from_ns = 0;  // drain start or last delivery's end
  double pump_wait_ms = 0.0;          // queue wait of this pump's rounds

  const Clock::time_point t0 = Clock::now();
  const auto since = [&](Clock::time_point t) { return ns_between(t0, t); };
  const auto add_span = [&](const char* name, std::int64_t start,
                            std::int64_t end, std::int32_t parent,
                            std::int64_t round = -1) {
    spans.push_back({name, start, end, parent, round});
    return static_cast<std::int32_t>(spans.size() - 1);
  };

  system->service.set_round_callback(
      [&](const vp::service::SessionRound& r) {
        const Clock::time_point arrived = Clock::now();
        const std::vector<HeardChunk>& heard =
            part.heard[part.observer_index(r.session)];
        const auto after = std::partition_point(
            heard.begin(), heard.end(), [&](const HeardChunk& h) {
              return h.first_time_s < r.round.time_s;
            });
        if (after == heard.begin()) {
          throw std::runtime_error("round delivered before its observer opened");
        }
        const std::int64_t wrote = written[after[-1].connection][after[-1].chunk];
        if (wrote < 0) {
          throw std::runtime_error("round delivered before its anchor was written");
        }
        const std::uint64_t id = r.round.round_id;
        const std::int64_t at = since(arrived);
        result.latency_ms.push_back(static_cast<double>(at - wrote) * 1e-6);
        DeliveredRound delivered{r.session, id, r.round.suspects, {}};
        for (const vp::core::PairDistance& pair : r.round.pairs) {
          delivered.heard.push_back(pair.a);
          delivered.heard.push_back(pair.b);
        }
        std::sort(delivered.heard.begin(), delivered.heard.end());
        delivered.heard.erase(
            std::unique(delivered.heard.begin(), delivered.heard.end()),
            delivered.heard.end());
        result.rounds.push_back(std::move(delivered));
        if (!traced) {
          fusion.observe(r);
          return;
        }
        const vp::obs::HistogramSnapshot seen = pump_hist->snapshot();
        if (seen.count != pumps_seen.count) {
          const auto pump_ns = static_cast<std::int64_t>(seen.sum - pumps_seen.sum);
          add_span("service.pump", at - pump_ns, at, drain_span);
          // Rounds were prepared while frames were delivered since the
          // drain started (or since the previous pump's rounds went out):
          // an upper bound on each round's wait for this pump.
          pump_wait_ms = static_cast<double>(at - pump_ns - delivery_from_ns) * 1e-6;
          pumps_seen = seen;
        }
        ledger.queue_wait_ms.push_back(pump_wait_ms);
        const Clock::time_point observe_start = Clock::now();
        fusion.observe(r);
        const Clock::time_point observe_end = Clock::now();
        const std::int32_t listener =
            add_span("harness.listener", at, since(observe_end), drain_span,
                     static_cast<std::int64_t>(id));
        add_span("fusion.observe", since(observe_start), since(observe_end),
                 listener, static_cast<std::int64_t>(id));
        delivery_from_ns = since(observe_end);
        ledger.listener_ns += static_cast<double>(ns_between(arrived, observe_end));
        ledger.observe_ns +=
            static_cast<double>(ns_between(observe_start, observe_end));
        ++ledger.observes;
      });
  fusion.set_epoch_callback([&](const vp::fusion::FusedEpoch& epoch) {
    result.epochs.push_back(epoch);
  });

  const auto advance = [&](bool finish) {
    const Clock::time_point a0 = Clock::now();
    fusion.advance(server.watermark());
    if (finish) fusion.finish();
    if (!traced) return;
    const Clock::time_point a1 = Clock::now();
    add_span(finish ? "fusion.finish" : "fusion.advance", since(a0), since(a1),
             -1);
    const auto ns = ns_between(a0, a1);
    ledger.advance_ns += static_cast<double>(ns);
    ++ledger.advances;
  };

  const auto step = [&] {
    if (!traced) {
      server.poll();
      server.drain();
      if (system->service.queued_rounds() != 0) {
        throw std::runtime_error("a drain left rounds queued");
      }
      advance(false);
      return;
    }
    const Clock::time_point p0 = Clock::now();
    server.poll();
    const Clock::time_point p1 = Clock::now();
    add_span("wire.poll", since(p0), since(p1), -1);
    ledger.poll_ns += static_cast<double>(ns_between(p0, p1));

    const vp::obs::HistogramSnapshot before = pump_hist->snapshot();
    pumps_seen = before;
    const Clock::time_point d0 = Clock::now();
    drain_span = add_span("wire.drain", since(d0), 0, -1);
    delivery_from_ns = since(d0);
    server.drain();
    const Clock::time_point d1 = Clock::now();
    spans[static_cast<std::size_t>(drain_span)].end_ns = since(d1);
    drain_span = -1;
    ledger.drain_ns += static_cast<double>(ns_between(d0, d1));
    const vp::obs::HistogramSnapshot after = pump_hist->snapshot();
    ledger.pump_ns += after.sum - before.sum;
    ledger.pumps += after.count - before.count;
    if (system->service.queued_rounds() != 0) {
      throw std::runtime_error("a drain left rounds queued");
    }
    advance(false);
  };

  std::vector<std::size_t> next_chunk(part.connections.size(), 0);
  for (bool more = true; more;) {
    more = false;
    for (std::size_t c = 0; c < part.connections.size(); ++c) {
      const ConnectionInput& in = part.connections[c];
      std::size_t& chunk = next_chunk[c];
      if (chunk >= in.chunk_ends.size()) continue;
      const std::size_t begin = chunk == 0 ? 0 : in.chunk_ends[chunk - 1];
      const std::size_t length = in.chunk_ends[chunk] - begin;
      const Clock::time_point s0 = Clock::now();
      const std::size_t sent = system->clients[c]->send(
          std::span<const std::uint8_t>(in.bytes.data() + begin, length));
      const Clock::time_point s1 = Clock::now();
      if (sent != length) {
        throw std::runtime_error("pipe refused part of a chunk");
      }
      const std::int64_t wrote = since(s1);
      written[c][chunk] = wrote;
      if (++chunk == in.chunk_ends.size()) {
        system->clients[c]->close();
      } else {
        more = true;
      }
      if (traced) {
        add_span("harness.send", since(s0), wrote, -1);
        ledger.send_ns += static_cast<double>(ns_between(s0, s1));
      }
    }
    step();
  }
  // Closed connections are reaped by the drain after the poll that sees
  // their end; a couple of extra steps at most.
  for (int guard = 0; server.connections_active() > 0; ++guard) {
    if (guard > 8) throw std::runtime_error("connections never closed");
    step();
  }
  advance(true);
  result.wall_s = static_cast<double>(since(Clock::now())) * 1e-9;

  result.wire = server.stats();
  result.service = system->service.stats();
  result.fusion = fusion.stats();
  result.wire_frames_buffered = server.frames_buffered();
  result.service_queued_rounds = system->service.queued_rounds();
  result.service_sessions_active = system->service.sessions_active();
  result.fusion_rounds_pending = fusion.rounds_pending();
  if (traced) {
    vp::obs::disable();
    read_registry(ledger);
    ledger.frames_sent = part.frames_sent;
    ledger.frames_received = result.wire.frames_received;
    ledger.beacons_delivered = result.wire.beacons_ingested;
    ledger.rounds_executed = result.service.rounds_executed;
  }
  return result;
}

StreamCapture capture_stream(const Workload& w) {
  constexpr std::size_t kBatch = 256;
  StreamCapture capture;
  double batch_ns = 0.0;
  double prepare_ns = 0.0;
  std::uint64_t fired = 0;
  for (const Part& part : w.parts) {
    std::vector<std::unique_ptr<vp::stream::StreamEngine>> engines;
    for (std::size_t i = 0; i < part.observers.size(); ++i) {
      engines.push_back(std::make_unique<vp::stream::StreamEngine>(
          vp::stream::StreamEngineConfig{}));
      engines.back()->set_round_deferral(
          [&fired](vp::stream::RoundInput&&) { ++fired; });
    }
    std::size_t in_batch = 0;
    Clock::time_point batch_start;
    const auto flush = [&] {
      if (in_batch == 0) return;
      batch_ns += static_cast<double>(ns_between(batch_start, Clock::now()));
      capture.beacons += in_batch;
      in_batch = 0;
    };
    for (const ConnectionInput& in : part.connections) {
      for (const vp::wire::Frame& f : delivered_frames(in)) {
        if (f.type == vp::wire::FrameType::kOpen) continue;
        vp::stream::StreamEngine& engine =
            *engines[part.observer_index(f.observer)];
        const bool beacon = f.type == vp::wire::FrameType::kBeacon;
        if (f.time_s < engine.next_round_time()) {
          if (!beacon) continue;  // an advance that fires nothing
          if (in_batch == 0) batch_start = Clock::now();
          engine.ingest(f.identity, f.time_s, f.rssi_dbm);
          if (++in_batch == kBatch) flush();
          continue;
        }
        // This call may cut a window: time it alone.
        flush();
        const std::uint64_t fired_before = fired;
        const Clock::time_point c0 = Clock::now();
        if (beacon) {
          engine.ingest(f.identity, f.time_s, f.rssi_dbm);
        } else {
          engine.advance_to(f.time_s);
        }
        const auto ns = static_cast<double>(ns_between(c0, Clock::now()));
        if (fired > fired_before) {
          prepare_ns += ns;
        } else if (beacon) {
          batch_ns += ns;  // an invalid beacon: shed before the clock moves
          ++capture.beacons;
        }
      }
      flush();
    }
  }
  capture.rounds = fired;
  if (capture.beacons > 0) {
    capture.ingest_ns_per_beacon = batch_ns / static_cast<double>(capture.beacons);
  }
  if (fired > 0) {
    capture.prepare_us_per_round = prepare_ns * 1e-3 / static_cast<double>(fired);
  }
  return capture;
}

}  // namespace bb
