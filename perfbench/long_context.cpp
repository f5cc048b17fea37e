// long_context — long-prompt requests one after another through
// nn::generate, the batch-1 API et_cli and the examples use, at threads=1.
//
// Why: with prompts of 224–339 tokens on a d=32 decoder, attention over
// the long KV cache and the per-token O(context·d) gather dominate the
// projection GEMMs; this is the path a single decode engine would
// rewrite, and threads=1 is where a faster FP16 inner loop shows fully.
//
// One pass is kPassRequests requests, one prompt from each of
// kPassRequests 16-token strata (so every seed has the same length mix up
// to a few tokens), in seeded order. A run repeats whole passes until its
// time is spent and at least kMinPasses have run; every repeat of a request must
// reproduce its first run bit for bit (transcript, modeled time, op rows),
// and one seeded request is re-decoded through serving::InferenceServer,
// which must match nn::generate exactly.
#include <memory>

#include "common.hpp"
#include "core/exec_context.hpp"
#include "nn/generation.hpp"
#include "numeric/half.hpp"
#include "serving/registry.hpp"
#include "serving/server.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kSalt = 0x10C6'0002;
constexpr std::size_t kLayers = 1;
constexpr std::size_t kDModel = 32;
constexpr std::size_t kHeads = 2;
constexpr std::int32_t kVocab = 97;
constexpr std::size_t kPassRequests = 8;
constexpr std::size_t kMinPrompt = 224;
constexpr std::size_t kStratum = 16;
constexpr std::size_t kJitter = 3;
constexpr std::size_t kNewTokens = 16;
constexpr std::size_t kMaxContext =
    kMinPrompt + kPassRequests * kStratum + kNewTokens;
/// Whole passes per untraced run: the median needs 20 samples under the
/// ten-beyond rule.
constexpr std::size_t kMinPasses = (20 + kPassRequests - 1) / kPassRequests;

struct LongRequest {
  std::vector<std::int32_t> prompt;
};

std::vector<LongRequest> make_requests(std::uint64_t seed) {
  Rng rng(seed ^ kSalt);
  std::vector<LongRequest> reqs(kPassRequests);
  for (std::size_t i = 0; i < kPassRequests; ++i) {
    const std::size_t len = kMinPrompt + kStratum * i + rng.range(0, kJitter);
    for (std::size_t t = 0; t < len; ++t) {
      reqs[i].prompt.push_back(static_cast<std::int32_t>(rng.range(0, kVocab - 1)));
    }
  }
  for (std::size_t i = kPassRequests - 1; i > 0; --i) {
    std::swap(reqs[i], reqs[rng.range(0, i)]);
  }
  return reqs;
}

et::nn::DecodeParams params_for(const et::serving::LoadedModel& model,
                                const LongRequest& r) {
  et::nn::DecodeParams p;
  p.prompt_tokens = r.prompt;
  p.max_new_tokens = kNewTokens;
  p.embed = model.embed_fn();
  p.select = model.select_fn();
  return p;
}

/// The model with the serving stack's own decode head
/// (LoadedModel::embed_fn / select_fn).
et::serving::ModelPin make_model() {
  Decoder d = make_decoder(kLayers, kDModel, kHeads, 21, kMaxContext);
  auto m = std::make_shared<const et::serving::LoadedModel>(
      "long", 1, std::move(d.layers), d.opt, kMaxContext, kVocab);
  // Warm-up: a short generate, so first-touch allocation is paid here.
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev, 1);
  et::nn::GenerationSession session(m->model());
  LongRequest warm;
  warm.prompt = {1, 2, 3, 4};
  (void)et::nn::generate(ctx, session, params_for(*m, warm));
  return m;
}

/// First run of one request index: what every repeat must reproduce.
struct Reference {
  std::vector<std::int32_t> tokens;
  double modeled_us = 0.0;
  OpTable ops;
  double launches = 0.0;
  double score_bytes = 0.0;
  double overflows = 0.0;
};

struct Phase {
  HostSamples hs;
  std::vector<double> prefill_ms;
  std::vector<double> decode_ms;
  double launches = 0.0;
  /// The last request's device, for the trace's modeled kernel track.
  std::unique_ptr<et::gpusim::Device> device;
};

void measure(const et::serving::LoadedModel& model,
             const std::vector<LongRequest>& reqs, double seconds,
             std::size_t min_passes, Tracer* tracer,
             std::vector<std::unique_ptr<Reference>>& refs, Phase& ph,
             Outcome& out) {
  const auto start = Clock::now();
  double pass_tokens = 0.0, pass_s = 0.0;
  for (std::size_t k = 0;
       k < min_passes * reqs.size() || k % reqs.size() != 0 ||
       ms_between(start, Clock::now()) < seconds * 1e3;
       ++k) {
    const std::size_t idx = k % reqs.size();
    std::vector<Clock::time_point> embeds, selects;
    embeds.reserve(kMaxContext);
    selects.reserve(kNewTokens);
    et::nn::DecodeParams p = params_for(model, reqs[idx]);
    p.embed = [&embeds, tracer, k, f = p.embed](std::int32_t token,
                                                std::size_t pos) {
      embeds.push_back(Clock::now());
      Span sp(tracer, "embed", k);
      return f(token, pos);
    };
    p.select = [&selects, tracer, k, f = p.select](
                   const et::tensor::MatrixF& hidden) {
      Span sp(tracer, "select", k);
      const std::int32_t t = f(hidden);
      selects.push_back(Clock::now());
      return t;
    };
    auto device = std::make_unique<et::gpusim::Device>();
    et::gpusim::Device& dev = *device;
    et::core::ExecContext ctx(dev, 1);
    et::nn::GenerationSession session(model.model());
    const std::uint64_t overflows0 = et::numeric::overflow_count();
    const auto t0 = Clock::now();
    const et::nn::GenerationResult res = [&] {
      Span sp(tracer, "generate", k);
      return et::nn::generate(ctx, session, p);
    }();
    const auto t1 = Clock::now();
    if (tracer != nullptr) {
      tracer->record("request", k, t0, t1, Tracer::kRequestTrack);
    }
    out.tally.add(res.stop_reason);

    auto ref = std::make_unique<Reference>();
    ref->tokens = res.tokens;
    ref->modeled_us = dev.total_time_us();
    ref->ops = op_table(dev);
    ref->launches = static_cast<double>(dev.launch_count());
    ref->score_bytes = static_cast<double>(dev.total_score_bytes());
    ref->overflows =
        static_cast<double>(et::numeric::overflow_count() - overflows0);
    if (!refs[idx]) {
      refs[idx] = std::move(ref);
    } else if (ref->tokens != refs[idx]->tokens ||
               ref->modeled_us != refs[idx]->modeled_us ||
               !(ref->ops == refs[idx]->ops)) {
      out.fail("long_context: a repeat of request " + std::to_string(idx) +
               " diverged from its first run");
    }

    pass_tokens += static_cast<double>(res.tokens.size());
    pass_s += ms_between(t0, t1) / 1e3;
    if (idx + 1 == reqs.size()) {
      ph.hs.add_pass(pass_tokens, pass_s);
      pass_tokens = pass_s = 0.0;
    }
    ph.launches += static_cast<double>(dev.launch_count());
    if (!selects.empty()) ph.hs.ttft_ms.push_back(ms_between(t0, selects[0]));
    for (std::size_t i = 1; i < selects.size(); ++i) {
      ph.hs.itl_ms.push_back(ms_between(selects[i - 1], selects[i]));
    }
    // Consecutive embed calls bracket one position's step: prompt
    // positions 0..n-2 are prefill, the rest decode.
    const std::size_t n = reqs[idx].prompt.size();
    for (std::size_t i = 1; i < embeds.size(); ++i) {
      (i < n ? ph.prefill_ms : ph.decode_ms)
          .push_back(ms_between(embeds[i - 1], embeds[i]));
    }
    if (tracer != nullptr) ph.device = std::move(device);
  }
}

}  // namespace

Outcome run_long_context(const RunArgs& args) {
  Outcome out;
  const et::serving::ModelPin model = timed_setup(make_model, out);
  const std::vector<LongRequest> reqs = make_requests(args.seed);
  std::vector<std::unique_ptr<Reference>> refs(reqs.size());

  Phase ph;
  if (!args.trace) {
    measure(*model, reqs, args.seconds, kMinPasses, nullptr, refs, ph, out);
    put_host_metrics(ph.hs, out);
  } else {
    Phase plain;
    measure(*model, reqs, args.seconds / 2, 1, nullptr, refs, plain, out);
    Tracer tracer;
    const auto t0 = Clock::now();
    measure(*model, reqs, args.seconds / 2, 1, &tracer, refs, ph, out);
    put_trace_overhead(ph.hs, plain.hs, out);
    finish_trace(args, tracer, ms_between(t0, Clock::now()) / 1e3,
                 ph.device.get(), out);
  }

  // Oracle: the same request through the serving stack (batch of one,
  // threads=1) must give nn::generate's transcript.
  Rng pick(args.seed ^ kSalt ^ 0x0AC1E);
  const std::size_t idx = pick.range(0, reqs.size() - 1);
  {
    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev, 1);
    et::serving::ServerConfig cfg;
    cfg.max_batch = 1;
    et::serving::InferenceServer srv(model->model(), cfg);
    et::serving::Request r;
    static_cast<et::nn::DecodeParams&>(r) = params_for(*model, reqs[idx]);
    const auto h = srv.submit(std::move(r));
    if (srv.wait(h, ctx).tokens != refs[idx]->tokens) {
      out.fail("long_context: request " + std::to_string(idx) +
               " served through InferenceServer differs from nn::generate");
    }
  }

  // Pass-level numbers: the first run of each of the kPassRequests.
  double tokens = 0.0, modeled = 0.0, launches = 0.0, score = 0.0, ovf = 0.0;
  OpTable ops;
  for (const auto& r : refs) {
    tokens += static_cast<double>(r->tokens.size());
    modeled += r->modeled_us;
    launches += r->launches;
    score += r->score_bytes;
    ovf += r->overflows;
    ops.add(r->ops);
  }
  out.metrics["modeled_us_per_token"] = modeled / tokens;
  put_op_metrics(ops, out);
  out.metrics["core.score_bytes"] = score;
  out.metrics["gpusim.launches"] = launches;
  out.metrics["gpusim.modeled_us_per_launch"] = modeled / launches;
  out.metrics["gpusim.host_us_per_launch"] = ph.hs.busy_s * 1e6 / ph.launches;
  out.metrics["numeric.fp16_overflows"] = ovf;
  out.metrics["nn.prefill_ms_per_position"] = median(ph.prefill_ms);
  out.metrics["nn.decode_ms_per_position"] = median(ph.decode_ms);
  return out;
}

}  // namespace perfbench
