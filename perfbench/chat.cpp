// chat_fp16 — continuous-batching chat on the paper's pure-FP16 E.T.
// decoder, driven open-loop on the server's logical tick clock.
//
// Why: it is the heaviest user of the software-FP16 batched GEMM, the
// fused decode tick, paged KV with copy-on-write prefix sharing, and
// admission and preemption. Arrivals are scheduled in ticks, so the batch
// make-up of every tick — and with it every modeled number — is the same
// on every host; only host time per tick moves.
//
// One pass serves a fixed seeded schedule of kRequests requests on a fresh
// server and device; a run repeats passes until its time is spent. Every
// pass must reproduce the first bit for bit (transcripts, modeled time, op
// rows), and a seeded sample is re-decoded through nn::generate, which
// must match the served transcript exactly.
#include <cstdio>
#include <memory>
#include <set>

#include "common.hpp"
#include "core/exec_context.hpp"
#include "nn/generation.hpp"
#include "numeric/half.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"

namespace perfbench {
namespace {

using et::serving::Priority;

constexpr std::uint64_t kSalt = 0xC4A7'0001;
// Small decoder: 2 layers, d=64, 4 heads, the ET pipeline's pure FP16.
constexpr std::size_t kLayers = 2;
constexpr std::size_t kDModel = 64;
constexpr std::size_t kHeads = 4;
constexpr std::int32_t kVocab = 97;
// One host thread: with a two-thread pool every tick waits for the later
// of two threads, which on a shared host doubled the run-to-run spread.
constexpr std::size_t kThreads = 1;
// Server: 8 slots; preemption is uncapped so no request fails.
constexpr std::size_t kSlots = 8;
// Request shapes, taken from bench/ablation_serving (README "Where the
// shapes come from"): its shared-system-prompt row — an 8-token prompt
// whose first 7 tokens are common to a group of 4 requests arriving one
// tick apart, 4 new tokens, 2-token KV blocks — for half the requests; the
// same 8-token prompt unshared, with the 8-token budget of its default
// row, for the other half. The priority mix, the arrival gaps and the
// flood are this benchmark's own sizing choices.
constexpr std::size_t kGroups = 20;
constexpr std::size_t kGroupSize = 4;
constexpr std::size_t kPrompt = 8;
constexpr std::size_t kGroupNew = 4;
constexpr std::size_t kSingles = 70;
constexpr std::size_t kSingleNew = 8;
constexpr std::size_t kBlockTokens = 2;
// A flood of kFloodBulk bulk requests followed by two interactive ones.
constexpr std::size_t kFloodBulk = 8;
constexpr std::size_t kRequests =
    kGroups * kGroupSize + kSingles + kFloodBulk + 2;  // 80 grouped of 160
constexpr std::size_t kMaxGap = 7;
constexpr std::size_t kMaxContext = kPrompt + kSingleNew + 1;
// Modeled-clock SLO for serving.modeled_slo_attainment.
constexpr double kModeledTtftLimitUs = 1500.0;
constexpr double kModeledGapLimitUs = 300.0;
constexpr std::size_t kOracleSamples = 3;

struct ChatRequest {
  std::size_t due_tick = 0;
  Priority priority = Priority::kNormal;
  std::uint64_t group = 0;  // 0 = no prefix sharing
  std::vector<std::int32_t> prompt;
  std::size_t max_new = 0;
};

/// The seeded arrival schedule. Every pass has the same multiset of
/// request shapes, gaps and priorities — only their order and the tokens
/// come from the seed — so seeds differ in arrangement, not in amount of
/// work. Arrival events (a single request, or a group's first member) are
/// 0–kMaxGap ticks apart, which offers about four fifths of slot capacity
/// with bursts wherever zero gaps meet — enough that most ticks run a full
/// batch, so the token gaps a seed sees do not hinge on its arrangement,
/// and little enough that the queue drains between bursts. A group's later
/// members arrive while the earlier ones are still resident, so prefix
/// sharing engages. 40% of the way in, the flood fills every slot so that
/// the two interactive arrivals preempt.
std::vector<ChatRequest> make_schedule(std::uint64_t seed) {
  Rng rng(seed ^ kSalt);
  // `n` values cycling through [lo, hi], in seeded order.
  const auto cycle = [&](std::size_t n, std::size_t lo, std::size_t hi) {
    std::vector<std::size_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = lo + i % (hi - lo + 1);
    rng.shuffle(v);
    return v;
  };
  const auto tokens = [&](std::size_t n) {
    std::vector<std::int32_t> t(n);
    for (auto& x : t) x = static_cast<std::int32_t>(rng.range(0, kVocab - 1));
    return t;
  };

  constexpr std::size_t kEvents = kGroups + kSingles;
  constexpr Priority kClasses[] = {Priority::kInteractive, Priority::kNormal,
                                   Priority::kNormal, Priority::kBulk};
  const auto gaps = cycle(kEvents, 0, kMaxGap);
  std::vector<std::size_t> grouped(kEvents, 0);
  std::fill(grouped.begin(), grouped.begin() + kGroups, 1);
  rng.shuffle(grouped);
  const auto classes = cycle(kGroups * kGroupSize + kSingles, 0, 3);

  std::vector<ChatRequest> out;
  std::size_t shaped = 0, tick = 0;
  std::uint64_t group = 0;
  const auto single = [&](std::size_t due, Priority p) {
    out.push_back({due, p, 0, tokens(kPrompt), kSingleNew});
  };
  for (std::size_t e = 0; e < kEvents; ++e) {
    if (e == kEvents * 2 / 5) {
      for (std::size_t i = 0; i < kFloodBulk; ++i) single(tick, Priority::kBulk);
      for (std::size_t i = 0; i < 2; ++i) {
        single(tick + 2, Priority::kInteractive);
      }
    }
    tick += gaps[e];
    if (grouped[e] == 0) {
      single(tick, kClasses[classes[shaped++]]);
      continue;
    }
    ++group;
    const std::vector<std::int32_t> system = tokens(kPrompt - 1);
    for (std::size_t m = 0; m < kGroupSize; ++m) {
      std::vector<std::int32_t> prompt = system;
      prompt.push_back(tokens(1).front());
      out.push_back({tick + m, kClasses[classes[shaped++]], group,
                     std::move(prompt), kGroupNew});
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ChatRequest& x, const ChatRequest& y) {
                     return x.due_tick < y.due_tick;
                   });
  return out;
}

et::serving::ServerConfig server_config() {
  et::serving::ServerConfig cfg;
  cfg.max_batch = kSlots;
  cfg.queue_capacity = 4 * kRequests;
  cfg.preemption_limit = kRequests;
  cfg.kv.block_tokens = kBlockTokens;
  return cfg;
}

/// The served model with the serving stack's own decode head
/// (LoadedModel::embed_fn / select_fn).
et::serving::ModelPin make_model() {
  Decoder d = make_decoder(kLayers, kDModel, kHeads, 11, kMaxContext);
  auto m = std::make_shared<const et::serving::LoadedModel>(
      "chat", 1, std::move(d.layers), d.opt, kMaxContext, kVocab);
  // Warm-up: one short request through a server, so first-touch
  // allocation is paid here and not in the first measured tick.
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev, kThreads);
  et::serving::InferenceServer srv(m->model(), server_config());
  et::serving::Request r;
  r.prompt_tokens = {1, 2, 3};
  r.max_new_tokens = 2;
  r.embed = m->embed_fn();
  r.select = m->select_fn();
  srv.submit(std::move(r));
  srv.drain(ctx);
  return m;
}

struct PassResult {
  std::vector<std::vector<std::int32_t>> transcripts;
  std::vector<et::nn::StopReason> stops;
  std::vector<std::size_t> preemptions;  // per request
  double modeled_us = 0.0;
  double tokens = 0.0;
  double host_s = 0.0;
  double launches = 0.0;
  double score_bytes = 0.0;
  double fallbacks = 0.0;
  double overflows = 0.0;
  OpTable ops;
  std::vector<et::serving::ScalarField> scalars;
  std::vector<double> queue_wait_ticks;
  std::vector<double> modeled_ttft_us;
  double slo_met = 0.0;
  double occupancy = 0.0;
  double ticks = 0.0;
  /// Kept for the trace's modeled kernel track (traced passes only).
  std::unique_ptr<et::gpusim::Device> device;

  [[nodiscard]] double scalar(std::string_view name) const {
    for (const auto& f : scalars) {
      if (f.name == name) return f.value;
    }
    return 0.0;
  }
};

/// Serve one pass of the schedule, appending host samples to `hs`.
PassResult run_pass(const et::serving::LoadedModel& model,
                    const std::vector<ChatRequest>& sched, Tracer* tracer,
                    HostSamples& hs, std::vector<double>& tick_ms,
                    std::vector<double>& submit_us) {
  struct Rec {
    Clock::time_point due;
    std::vector<Clock::time_point> token_times;
    std::vector<std::size_t> token_ticks;
    et::serving::RequestHandle handle;
  };
  std::vector<Rec> recs(sched.size());
  auto device = std::make_unique<et::gpusim::Device>();
  et::gpusim::Device& dev = *device;
  et::core::ExecContext ctx(dev, kThreads);
  et::serving::InferenceServer srv(model.model(), server_config());

  const auto embed = [tracer, f = model.embed_fn()](std::int32_t token,
                                                    std::size_t pos) {
    Span s(tracer, "embed");
    return f(token, pos);
  };
  const auto select = [tracer, f = model.select_fn()](
                          const et::tensor::MatrixF& hidden) {
    Span s(tracer, "select");
    return f(hidden);
  };

  const std::uint64_t overflows0 = et::numeric::overflow_count();
  std::vector<double> modeled_at;  // modeled clock before tick t
  double modeled_clock = 0.0;
  std::size_t cursor = 0;
  double occupied = 0.0;
  std::size_t next = 0;
  std::size_t t = 0;
  const auto pass_start = Clock::now();
  while (next < sched.size() || !srv.idle()) {
    const auto tick_start = Clock::now();
    modeled_at.push_back(modeled_clock);
    for (; next < sched.size() && sched[next].due_tick <= t; ++next) {
      const ChatRequest& c = sched[next];
      Rec& rec = recs[next];
      rec.due = tick_start;
      et::serving::Request r;
      r.priority = c.priority;
      r.prefix_group = c.group;
      r.prompt_tokens = c.prompt;
      r.max_new_tokens = c.max_new;
      r.embed = embed;
      r.select = select;
      r.on_token = [&rec, &t, tracer](std::uint64_t id, std::int32_t,
                                      std::size_t) {
        Span s(tracer, "on_token", id);
        rec.token_times.push_back(Clock::now());
        rec.token_ticks.push_back(t);
      };
      const auto s0 = Clock::now();
      rec.handle = srv.submit(std::move(r));
      const auto s1 = Clock::now();
      submit_us.push_back(ms_between(s0, s1) * 1e3);
      if (tracer != nullptr) tracer->record("submit", rec.handle.id, s0, s1);
    }
    {
      Span s(tracer, "tick");
      srv.tick(ctx);
    }
    tick_ms.push_back(ms_between(tick_start, Clock::now()));
    std::set<int> slots;
    const auto& h = dev.history();
    for (std::size_t i = cursor; i < h.size(); ++i) {
      if (h[i].slot != et::gpusim::kNoSlot) slots.insert(h[i].slot);
    }
    occupied += static_cast<double>(slots.size());
    modeled_clock += modeled_us_since(dev, cursor);
    cursor = h.size();
    ++t;
  }
  modeled_at.push_back(modeled_clock);  // clock after the last tick

  PassResult p;
  p.host_s = ms_between(pass_start, Clock::now()) / 1e3;
  p.ticks = static_cast<double>(t);
  p.occupancy = occupied / (static_cast<double>(kSlots) * p.ticks);
  for (std::size_t i = 0; i < sched.size(); ++i) {
    const Rec& rec = recs[i];
    const auto& res = srv.result(rec.handle);
    const auto st = srv.status(rec.handle);
    p.transcripts.push_back(res.tokens);
    p.stops.push_back(res.stop_reason);
    p.preemptions.push_back(st.preemptions);
    p.tokens += static_cast<double>(res.tokens.size());
    if (st.admitted_tick != et::serving::kNoTick) {
      p.queue_wait_ticks.push_back(
          static_cast<double>(st.admitted_tick - st.submitted_tick));
    }
    if (rec.token_times.empty()) continue;
    if (tracer != nullptr) {
      tracer->record("request", rec.handle.id, rec.due, rec.token_times.back(),
                     Tracer::kRequestTrack + static_cast<int>(i));
    }
    hs.ttft_ms.push_back(ms_between(rec.due, rec.token_times.front()));
    // Modeled TTFT: from the start of the due tick to the end of the tick
    // that emitted the first token; gaps likewise between emitting ticks.
    const double ttft_us =
        modeled_at[rec.token_ticks.front() + 1] - modeled_at[sched[i].due_tick];
    p.modeled_ttft_us.push_back(ttft_us);
    bool met = ttft_us <= kModeledTtftLimitUs;
    for (std::size_t k = 1; k < rec.token_times.size(); ++k) {
      hs.itl_ms.push_back(
          ms_between(rec.token_times[k - 1], rec.token_times[k]));
      met = met && modeled_at[rec.token_ticks[k] + 1] -
                           modeled_at[rec.token_ticks[k - 1] + 1] <=
                       kModeledGapLimitUs;
    }
    if (met && !counts_as_failed(res.stop_reason)) p.slo_met += 1.0;
  }
  hs.add_pass(p.tokens, p.host_s);
  p.modeled_us = modeled_clock;
  p.launches = static_cast<double>(dev.launch_count());
  p.score_bytes = static_cast<double>(dev.total_score_bytes());
  p.fallbacks = static_cast<double>(dev.fallback_log().size());
  p.overflows =
      static_cast<double>(et::numeric::overflow_count() - overflows0);
  p.ops = op_table(dev);
  p.scalars = srv.metrics().scalars();
  if (tracer != nullptr) p.device = std::move(device);
  return p;
}

/// Run passes until `seconds` have elapsed (at least one).
void measure(const et::serving::LoadedModel& model,
             const std::vector<ChatRequest>& sched, double seconds, Tracer* tracer, HostSamples& hs,
             std::vector<PassResult>& passes, std::vector<double>& tick_ms,
             std::vector<double>& submit_us) {
  const auto start = Clock::now();
  do {
    passes.push_back(run_pass(model, sched, tracer, hs, tick_ms, submit_us));
  } while (ms_between(start, Clock::now()) < seconds * 1e3);
}

}  // namespace

Outcome run_chat(const RunArgs& args) {
  Outcome out;
  const et::serving::ModelPin model = timed_setup(make_model, out);
  const std::vector<ChatRequest> sched = make_schedule(args.seed);

  HostSamples hs;
  std::vector<PassResult> passes;
  std::vector<double> tick_ms, submit_us;
  if (!args.trace) {
    measure(*model, sched, args.seconds, nullptr, hs, passes, tick_ms,
            submit_us);
    put_host_metrics(hs, out);
  } else {
    // Untraced half, then traced half: per-layer numbers come from the
    // traced half, and the ratio of their step times is the overhead.
    HostSamples plain;
    std::vector<double> plain_tick, plain_submit;
    measure(*model, sched, args.seconds / 2, nullptr, plain, passes,
            plain_tick, plain_submit);
    Tracer tracer;
    const auto t0 = Clock::now();
    measure(*model, sched, args.seconds / 2, &tracer, hs, passes, tick_ms,
            submit_us);
    const double traced_s = ms_between(t0, Clock::now()) / 1e3;
    put_trace_overhead(hs, plain, out);
    finish_trace(args, tracer, traced_s, passes.back().device.get(), out);
  }

  // Every pass must reproduce the first bit for bit.
  const PassResult& first = passes.front();
  for (const PassResult& p : passes) {
    if (p.transcripts != first.transcripts || p.modeled_us != first.modeled_us ||
        !(p.ops == first.ops)) {
      out.fail("chat_fp16: a repeated pass diverged from the first "
               "(transcripts, modeled time or op rows)");
    }
    for (const auto r : p.stops) out.tally.add(r);
  }
  // The generator must engage what the workload exists to measure.
  if (first.scalar("prefix_hits") <= 0.0) {
    out.fail("chat_fp16: the schedule produced no prefix hits");
  }
  if (first.scalar("preemptions") + first.scalar("shed") <= 0.0) {
    out.fail("chat_fp16: the schedule produced no preemption or shed");
  }

  // Oracle: re-decode a seeded sample (the first preempted request among
  // them) with nn::generate.
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < sched.size() && sample.empty(); ++i) {
    if (first.preemptions[i] > 0) sample.push_back(i);
  }
  Rng pick(args.seed ^ kSalt ^ 0x0AC1E);
  while (sample.size() < kOracleSamples) {
    sample.push_back(pick.range(0, sched.size() - 1));
  }
  for (const std::size_t i : sample) {
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev, 1);
    et::nn::GenerationSession session(model->model());
    et::nn::DecodeParams p;
    p.prompt_tokens = sched[i].prompt;
    p.max_new_tokens = sched[i].max_new;
    p.embed = model->embed_fn();
    p.select = model->select_fn();
    const auto ref = et::nn::generate(ctx, session, p);
    if (ref.tokens != first.transcripts[i]) {
      out.fail("chat_fp16: served transcript of request " + std::to_string(i) +
               " differs from nn::generate");
    }
  }

  const double n = static_cast<double>(sched.size());
  out.metrics["modeled_us_per_token"] = first.modeled_us / first.tokens;
  out.metrics["serving.tick_ms_p50"] = layer_percentile(tick_ms, 0.5);
  out.metrics["serving.tick_ms_p90"] = layer_percentile(tick_ms, 0.9);
  out.metrics["serving.submit_us_p50"] = layer_percentile(submit_us, 0.5);
  out.metrics["serving.queue_wait_ticks_p50"] =
      layer_percentile(first.queue_wait_ticks, 0.5);
  out.metrics["serving.queue_wait_ticks_p90"] =
      layer_percentile(first.queue_wait_ticks, 0.9);
  out.metrics["serving.batch_occupancy"] = first.occupancy;
  out.metrics["serving.ticks"] = first.ticks;
  out.metrics["serving.preemptions"] = first.scalar("preemptions");
  out.metrics["serving.retries"] = first.scalar("retries");
  out.metrics["serving.shed"] = first.scalar("shed");
  out.metrics["serving.rejected"] = first.scalar("requests_rejected");
  out.metrics["serving.expired"] = first.scalar("requests_expired");
  out.metrics["serving.modeled_ttft_p90_us"] =
      layer_percentile(first.modeled_ttft_us, 0.9);
  out.metrics["serving.modeled_slo_attainment"] = first.slo_met / n;
  out.metrics["core.kv_bytes_reserved"] = first.scalar("kv_bytes");
  out.metrics["core.kv_bytes_used_peak"] = first.scalar("kv_bytes_used_peak");
  out.metrics["core.kv_used_share"] =
      first.scalar("kv_bytes_used_peak") / first.scalar("kv_bytes");
  out.metrics["core.prefix_hits"] = first.scalar("prefix_hits");
  double prompt_tokens = 0.0;
  for (const auto& c : sched) prompt_tokens += static_cast<double>(c.prompt.size());
  out.metrics["core.prefix_hit_share"] =
      first.scalar("prefix_shared_tokens") / prompt_tokens;
  out.metrics["core.cow_splits"] = first.scalar("cow_splits");
  out.metrics["core.score_bytes"] = first.score_bytes;
  out.metrics["core.fallbacks"] = first.fallbacks;
  put_op_metrics(first.ops, out);
  out.metrics["gpusim.launches"] = first.launches;
  out.metrics["gpusim.host_us_per_launch"] =
      passes.back().host_s * 1e6 / passes.back().launches;
  out.metrics["gpusim.modeled_us_per_launch"] = first.modeled_us / first.launches;
  out.metrics["numeric.fp16_overflows"] = first.overflows;
  return out;
}

}  // namespace perfbench
