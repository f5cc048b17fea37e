// wire_int8 — an INT8-weight, INT8-KV decoder served by net::ApiServer on
// loopback, driven through the repo's own net::Client.
//
// Why: it is the only workload that measures the network layer and the
// quantized decode path behind it; INT8 GEMMs skip most of the FP16
// emulation, so it is also the real-math control for FP16 work.
//
// Load: closed loop over two connections, an interactive tenant keeping
// kInFlight[0] streams in flight and a bulk tenant keeping kInFlight[1],
// together exactly the server's slots: each connection's thread submits
// its next request the moment one of its streams is done, until the run's
// seconds are spent, so no request waits in the server's queue. (An open loop was tried first: at rates the
// server sustains, its ~1 ms ticks leave the token gaps at the mercy of
// thread wake-up delays on a shared host, and their quartile spread across
// seeds exceeded any bound the benchmark may set.) The client keeps its
// default delayed ACKs, as real clients do: ApiServer writes token frames
// without TCP_NODELAY, so they arrive in clumps and TTFT reads the ACK
// timer (perfbench/README.md, "What wire_int8 sees through a standard
// client").
//
// Correctness: the wire transcripts of a seeded sample of streams must
// equal an in-process serving::InferenceServer on the same pinned INT8
// model, bit for bit (transcripts do not depend on batch composition).
#include <map>
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/exec_context.hpp"
#include "net/auth.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"

namespace perfbench {
namespace {

using et::net::FrameType;

constexpr std::uint64_t kSalt = 0x1E1E'0004;
constexpr std::size_t kLayers = 2;
constexpr std::size_t kDModel = 128;
constexpr std::size_t kHeads = 4;
constexpr std::int32_t kVocab = 257;
// The server's decode pool: one thread, so that a tick's time does not
// hinge on a second thread being scheduled promptly on a shared host.
constexpr std::size_t kThreads = 1;
constexpr std::size_t kSlots = 8;
constexpr std::size_t kInFlight[2] = {2, 6};  // interactive, bulk
static_assert(kInFlight[0] + kInFlight[1] == kSlots);
// New tokens per request: kNewTokens on average, from one fewer to one more.
constexpr std::uint32_t kNewTokens = 8;
constexpr std::size_t kMaxContext = 1 + (kNewTokens + 1) + 1;
constexpr std::size_t kOracleSamples = 64;
/// Requests per connection replayed for the modeled metrics.
constexpr std::size_t kReplayPerConn = 100;
constexpr const char* kModel = "chat";
constexpr const char* kKeys[2] = {"perfbench-interactive", "perfbench-bulk"};

struct WireRequest {
  std::vector<std::int32_t> prompt;
  std::uint32_t max_new = 0;
};

/// Connection `conn`'s seeded request sequence, in the shape of
/// bench/ablation_serving's INT8 rows: a 1-token prompt and 8 new tokens,
/// give or take one. Without that jitter every request has the same shape
/// and the modeled metric would not depend on the seed at all.
/// Lazy, because a closed loop takes as many as the host serves in the
/// run's seconds; the first requests are the same on every host.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, int conn)
      : rng_(seed ^ kSalt ^ (static_cast<std::uint64_t>(conn) << 40)) {}
  WireRequest next() {
    WireRequest r;
    r.prompt = {static_cast<std::int32_t>(rng_.range(0, kVocab - 1))};
    r.max_new = static_cast<std::uint32_t>(
        rng_.range(kNewTokens - 1, kNewTokens + 1));
    return r;
  }

 private:
  Rng rng_;
};

et::serving::ServerConfig engine_config() {
  et::serving::ServerConfig cfg;
  cfg.max_batch = kSlots;
  cfg.queue_capacity = 4 * kReplayPerConn;  // the replay queues every request
  cfg.kv.precision = et::core::KvPrecision::kInt8;
  return cfg;
}

/// One started server with both tenants connected and authenticated.
struct Server {
  et::gpusim::Device dev;
  std::unique_ptr<et::core::ExecContext> ctx;
  et::serving::ModelRegistry registry;
  std::unique_ptr<et::net::ApiServer> api;  // borrows registry and ctx
  et::net::Client conns[2];                 // destroyed before api
  double model_build_ms = 0.0;
  double hello_rtt_ms = 0.0;
  double frames_sent = 0.0;
  double frames_recv = 0.0;
  double bytes_recv = 0.0;
};

std::unique_ptr<Server> make_server() {
  auto s = std::make_unique<Server>();
  s->ctx = std::make_unique<et::core::ExecContext>(s->dev, kThreads);
  Decoder d = make_decoder(kLayers, kDModel, kHeads, 31, kMaxContext);
  const auto b0 = Clock::now();
  s->registry.add(kModel, 1, std::move(d.layers), d.opt, kMaxContext, kVocab,
                  et::nn::WeightFormat::kInt8);
  s->model_build_ms = ms_between(b0, Clock::now());

  et::net::ApiServerConfig cfg;
  cfg.max_connections = 4;
  cfg.default_model = kModel;
  cfg.engine = engine_config();
  et::net::TenantTable tenants(
      {{"interactive", kKeys[0], et::serving::Priority::kInteractive},
       {"bulk", kKeys[1], et::serving::Priority::kBulk}});
  s->api = std::make_unique<et::net::ApiServer>(cfg, std::move(tenants),
                                                s->registry);
  s->api->serve_model(kModel);
  s->api->start(*s->ctx);
  std::vector<double> rtts;
  for (int c = 0; c < 2; ++c) {
    s->conns[c].connect(s->api->port());
    const auto h0 = Clock::now();
    const auto ok = s->conns[c].hello(kKeys[c]);
    rtts.push_back(ms_between(h0, Clock::now()));
    s->frames_sent += 1.0;
    if (!ok || ok->type != FrameType::kHelloOk) {
      throw std::runtime_error("wire_int8: hello refused: " +
                               s->conns[c].error_detail());
    }
    s->frames_recv += 1.0;
  }
  s->hello_rtt_ms = median(rtts);
  // Warm-up: one short stream end to end, so first-touch allocation on
  // the server is paid here.
  s->conns[0].submit(0, "", {1, 2, 3}, 4);
  s->frames_sent += 1.0;
  for (;;) {
    const auto f = s->conns[0].next();
    if (!f) throw std::runtime_error("wire_int8: warm-up stream broke");
    s->frames_recv += 1.0;
    s->bytes_recv += static_cast<double>(et::net::encode_frame(*f).size());
    if (f->type == FrameType::kDone) break;
    if (f->type != FrameType::kToken) {
      throw std::runtime_error("wire_int8: warm-up stream refused");
    }
  }
  return s;
}

/// A finished stream, kept for the oracle.
struct Done {
  WireRequest req;
  std::vector<std::int32_t> tokens;
  std::uint8_t stop = 0;
};

/// What one connection's thread measured in one phase.
struct ConnResult {
  double tokens = 0.0;
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  std::vector<Done> done;
  std::array<double, 8> rejects{};
  double frames_sent = 0.0;
  double frames_recv = 0.0;
  double bytes_recv = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;
};

/// Connection `c`'s closed loop: keep kInFlight[c] streams in flight until
/// `end`, then drain. Stream ids start at `first_id` so phases never reuse
/// one.
void drive_connection(et::net::Client& conn, int c, RequestStream& gen,
                      std::uint64_t first_id, Clock::time_point end,
                      Tracer* tracer, ConnResult& r) {
  struct Live {
    WireRequest req;
    Clock::time_point sent;
    std::vector<Clock::time_point> token_times;
    std::vector<std::int32_t> tokens;
  };
  std::map<std::uint64_t, Live> live;
  std::uint64_t next_id = first_id;
  const auto submit = [&] {
    Live l{gen.next(), Clock::now(), {}, {}};
    conn.submit(next_id, "", l.req.prompt, l.req.max_new);
    if (tracer != nullptr) tracer->record("send", next_id, l.sent, Clock::now(), 1 + c);
    live.emplace(next_id++, std::move(l));
    r.frames_sent += 1.0;
    ++r.attempted;
  };
  try {
    for (std::size_t i = 0; i < kInFlight[c]; ++i) submit();
    while (!live.empty()) {
      const auto r0 = Clock::now();
      const auto f = conn.next();
      const auto r1 = Clock::now();
      if (!f) {
        r.error = "connection lost: " + conn.error_detail();
        return;
      }
      r.frames_recv += 1.0;
      r.bytes_recv += static_cast<double>(et::net::encode_frame(*f).size());
      if (tracer != nullptr) tracer->record("recv", f->stream_id, r0, r1, 1 + c);
      const auto it = live.find(f->stream_id);
      if (it == live.end()) {
        r.error = "frame for unknown stream " + std::to_string(f->stream_id);
        return;
      }
      Live& l = it->second;
      if (f->type == FrameType::kToken) {
        l.token_times.push_back(r1);
        l.tokens.push_back(f->token);
        continue;
      }
      if (f->type == FrameType::kDone) {
        if (f->index != l.tokens.size()) {
          r.error = "a done frame's token count disagrees with the stream";
          return;
        }
        if (counts_as_failed(static_cast<et::nn::StopReason>(f->code))) {
          ++r.failed;
        }
        if (!l.token_times.empty()) {
          r.ttft_ms.push_back(ms_between(l.sent, l.token_times.front()));
          for (std::size_t k = 1; k < l.token_times.size(); ++k) {
            r.itl_ms.push_back(ms_between(l.token_times[k - 1], l.token_times[k]));
          }
        }
        r.tokens += static_cast<double>(l.tokens.size());
        if (tracer != nullptr) {
          tracer->record("request", f->stream_id, l.sent, r1,
                         Tracer::kRequestTrack + 256 * c +
                             static_cast<int>(f->stream_id % 256));
        }
        r.done.push_back({std::move(l.req), std::move(l.tokens), f->code});
      } else if (f->type == FrameType::kReject) {
        ++r.failed;
        if (f->code < r.rejects.size()) r.rejects[f->code] += 1.0;
      } else {
        r.error = "unexpected frame " + std::string(et::net::to_string(f->type));
        return;
      }
      live.erase(it);
      if (Clock::now() < end) submit();
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
}

struct Phase {
  HostSamples hs;
  ConnResult conns[2];
};

/// One closed-loop phase of `seconds` over both connections.
void run_phase(Server& s, double seconds,
               std::uint64_t& next_id, RequestStream (&gens)[2], Tracer* tracer,
               Phase& ph, Outcome& out) {
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  // Ids of the two connections never meet: 2^40 streams apart.
  std::thread threads[2];
  for (int c = 0; c < 2; ++c) {
    threads[c] = std::thread(drive_connection, std::ref(s.conns[c]), c,
                             std::ref(gens[c]),
                             next_id + (static_cast<std::uint64_t>(c) << 40),
                             end, tracer, std::ref(ph.conns[c]));
  }
  for (auto& t : threads) t.join();
  const double busy_s = ms_between(start, Clock::now()) / 1e3;
  double tokens = 0.0;
  for (ConnResult& r : ph.conns) {
    if (!r.error.empty()) out.fail("wire_int8: " + r.error);
    out.tally.attempted += r.attempted;
    out.tally.failed += r.failed;
    tokens += r.tokens;
    next_id += r.attempted;
    ph.hs.ttft_ms.insert(ph.hs.ttft_ms.end(), r.ttft_ms.begin(), r.ttft_ms.end());
    ph.hs.itl_ms.insert(ph.hs.itl_ms.end(), r.itl_ms.begin(), r.itl_ms.end());
    s.frames_sent += r.frames_sent;
    s.frames_recv += r.frames_recv;
    s.bytes_recv += r.bytes_recv;
  }
  ph.hs.add_pass(tokens, busy_s);
}

}  // namespace

Outcome run_wire(const RunArgs& args) {
  Outcome out;
  const std::unique_ptr<Server> server = timed_setup(make_server, out);
  Server& s = *server;

  RequestStream gens[2] = {RequestStream(args.seed, 0),
                           RequestStream(args.seed, 1)};
  std::uint64_t next_id = 1;
  std::vector<Phase> phases(args.trace ? 2 : 1);
  std::unique_ptr<Tracer> tracer;
  if (!args.trace) {
    run_phase(s, args.seconds, next_id, gens, nullptr, phases[0], out);
    put_host_metrics(phases[0].hs, out);
  } else {
    // Untraced half, then traced half.
    run_phase(s, args.seconds / 2, next_id, gens, nullptr, phases[0], out);
    tracer = std::make_unique<Tracer>();
    run_phase(s, args.seconds / 2, next_id, gens, tracer.get(), phases[1],
              out);
    put_trace_overhead(phases[1].hs, phases[0].hs, out);
  }
  const Phase& ph = phases.back();
  const std::vector<et::serving::ScalarField> scalars = s.api->metrics_scalars();
  s.api->shutdown(/*drain_ticks=*/10000);  // joins the drive thread

  const et::serving::ModelPin pin = s.registry.acquire(kModel);
  const auto request = [&pin](const WireRequest& w) {
    et::serving::Request r;  // as ApiServer builds it from a submit frame
    r.prompt_tokens = w.prompt;
    r.first_token = w.prompt.front();
    r.max_new_tokens = w.max_new;
    r.embed = pin->embed_fn();
    r.select = pin->select_fn();
    return r;
  };

  // Oracle: a seeded sample of finished streams, replayed in process on
  // the same pinned model with the server's own embed/select.
  {
    std::vector<const Done*> done;
    for (const auto& r : ph.conns) {
      for (const auto& d : r.done) done.push_back(&d);
    }
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev, kThreads);
    et::serving::InferenceServer ref(pin->model(), engine_config());
    std::vector<std::pair<const Done*, et::serving::RequestHandle>> sample;
    Rng pick(args.seed ^ kSalt ^ 0x0AC1E);
    for (std::size_t n = 0; n < kOracleSamples && !done.empty(); ++n) {
      const Done* d = done[pick.range(0, done.size() - 1)];
      sample.emplace_back(d, ref.submit(request(d->req)));
    }
    ref.drain(ctx);
    for (const auto& [d, h] : sample) {
      const auto& res = ref.result(h);
      if (res.tokens != d->tokens ||
          static_cast<std::uint8_t>(res.stop_reason) != d->stop) {
        out.fail("wire_int8: a wire transcript differs from the in-process "
                 "InferenceServer on the same model");
        break;
      }
    }
  }

  // Modeled cost: the served batch make-up follows wall-clock timing, so
  // the live server's device log differs run to run. The modeled numbers
  // come instead from the first kReplayPerConn requests of each
  // connection's sequence replayed in process on the same engine,
  // traffic-only, all due at once — exact for a seed.
  et::gpusim::Device mdev;
  mdev.set_traffic_only(true);
  {
    et::core::ExecContext ctx(mdev, 1);
    et::serving::InferenceServer replay(pin->model(), engine_config());
    std::vector<et::serving::RequestHandle> handles;
    for (int c = 0; c < 2; ++c) {
      RequestStream gen(args.seed, c);
      for (std::size_t i = 0; i < kReplayPerConn; ++i) {
        handles.push_back(replay.submit(request(gen.next())));
      }
    }
    replay.drain(ctx);
    double tokens = 0.0;
    for (const auto& h : handles) {
      tokens += static_cast<double>(replay.result(h).tokens.size());
    }
    out.metrics["modeled_us_per_token"] = mdev.total_time_us() / tokens;
  }
  put_op_metrics(op_table(mdev), out);
  out.metrics["core.score_bytes"] = static_cast<double>(mdev.total_score_bytes());
  out.metrics["core.fallbacks"] = static_cast<double>(mdev.fallback_log().size());
  out.metrics["gpusim.launches"] = static_cast<double>(mdev.launch_count());
  out.metrics["gpusim.modeled_us_per_launch"] =
      mdev.total_time_us() / static_cast<double>(mdev.launch_count());
  out.metrics["quant.model_build_ms"] = s.model_build_ms;
  out.metrics["net.hello_rtt_ms"] = s.hello_rtt_ms;
  out.metrics["net.frames_sent"] = s.frames_sent;
  out.metrics["net.frames_recv"] = s.frames_recv;
  out.metrics["net.bytes_recv"] = s.bytes_recv;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto status = static_cast<et::net::NetStatus>(i);
    out.metrics["net.rejects." + std::string(et::net::to_string(status))] =
        ph.conns[0].rejects[i] + ph.conns[1].rejects[i];
  }
  for (const auto& f : scalars) {
    if (f.name == "net_requests_rejected") out.metrics["serving.rejected"] = f.value;
  }
  if (tracer) finish_trace(args, *tracer, ph.hs.busy_s, &s.dev, out);
  return out;
}

}  // namespace perfbench
