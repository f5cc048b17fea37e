// encoder_bert — the paper's own workload: BERT_BASE-shape (12 layers,
// d=768, 12 heads) E.T. encoder inference through nn::encoder_stack_forward,
// traffic-only, threads=1, on dense and on §4.3 attention-aware-pruned
// layers.
//
// Why: the modeled time is the Fig. 7/8 quantity, and host time here is
// almost all simulator bookkeeping — the numeric math is skipped, so a
// faster FP16 inner loop must not move it, while per-launch attribution
// work could slow it.
//
// One pass runs nine log-spaced sequence lengths from 32 to 512 (see
// make_pass) on the dense and pruned stacks. A run repeats whole passes
// until its time is spent and at least kMinCalls calls have run. Every repeat of a call must reproduce
// its first run's modeled time and op rows exactly.
//
// Weight values do not affect a traffic-only forward, only shapes and the
// pruned layout do, so each stack repeats one generated layer twelve
// times instead of generating twelve.
#include <cmath>
#include <memory>

#include "common.hpp"
#include "core/exec_context.hpp"
#include "nn/encoder.hpp"
#include "pruning/strategy.hpp"
#include "train/model.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kSalt = 0xE2C0'0003;
/// Nominal lengths 32·2^(i/2), i = 0..kLengths-1: 32, 45, 64, ... 512.
constexpr std::size_t kLengths = 9;
constexpr double kPruneRatio = 0.8;
/// itl_p90_ms needs 100 samples under the ten-beyond rule.
constexpr std::size_t kMinCalls = 100;

struct Call {
  std::size_t seq = 0;
  bool pruned = false;
};

/// Every nominal length on the dense stack, every other one on the pruned
/// stack (so the call-latency median sits inside the dense population, not
/// on the gap between the two), each shortened by a seeded 0–6%, in seeded
/// order.
std::vector<Call> make_pass(std::uint64_t seed) {
  Rng rng(seed ^ kSalt);
  std::vector<Call> calls;
  for (std::size_t i = 0; i < kLengths; ++i) {
    const auto nominal = static_cast<std::size_t>(
        std::lround(32.0 * std::exp2(static_cast<double>(i) / 2.0)));
    const std::size_t seq = nominal - rng.range(0, nominal / 16);
    calls.push_back({seq, false});
    if (i % 2 == 0) calls.push_back({seq, true});
  }
  rng.shuffle(calls);
  return calls;
}

struct Setup {
  std::vector<et::nn::EncoderWeights> dense;
  std::vector<et::nn::EncoderWeights> pruned;
};

std::unique_ptr<Setup> make_setup() {
  const et::nn::ModelConfig bert = et::nn::bert_base();
  auto s = std::make_unique<Setup>();
  s->dense.assign(bert.num_layers, et::nn::make_dense_encoder_weights(bert, 7));
  et::train::TrainModelConfig tcfg;
  tcfg.vocab_size = 64;
  tcfg.d_model = bert.d_model;
  tcfg.num_heads = bert.num_heads;
  tcfg.d_ff = bert.d_ff;
  tcfg.num_layers = 1;
  et::train::TransformerModel trainable(tcfg, 2024);
  const auto masks = et::pruning::compute_layer_masks(
      trainable.layers()[0], et::pruning::Strategy::kAttentionAware,
      kPruneRatio);
  s->pruned.assign(bert.num_layers,
                   et::pruning::deploy_layer(
                       trainable.layers()[0], masks,
                       et::pruning::Strategy::kAttentionAware));
  return s;
}

struct Reference {
  double modeled_us = 0.0;
  OpTable ops;
  double launches = 0.0;
  double score_bytes = 0.0;
  double fallbacks = 0.0;
};

struct Phase {
  HostSamples hs;
  std::vector<double> call_ms;
  double launches = 0.0;
};

void measure(const Setup& s, const std::vector<Call>& pass, double seconds,
             std::size_t min_calls, Tracer* tracer,
             std::vector<std::unique_ptr<Reference>>& refs, Phase& ph,
             Outcome& out) {
  const et::nn::ModelConfig bert = et::nn::bert_base();
  const auto start = Clock::now();
  Clock::time_point prev_done{};
  double pass_tokens = 0.0, pass_s = 0.0;
  for (std::size_t k = 0; k < min_calls || k % pass.size() != 0 ||
                          ms_between(start, Clock::now()) < seconds * 1e3;
       ++k) {
    const std::size_t idx = k % pass.size();
    const Call& c = pass[idx];
    et::gpusim::Device dev;
    dev.set_traffic_only(true);
    et::core::ExecContext ctx(dev, 1);
    const et::tensor::MatrixF x(c.seq, bert.d_model);
    const auto opt = et::nn::options_for(et::nn::Pipeline::kET, bert, c.seq);
    const auto t0 = Clock::now();
    {
      Span sp(tracer, "encoder_call", k);
      const et::tensor::MatrixF y = et::nn::encoder_stack_forward(
          ctx, x, c.pruned ? s.pruned : s.dense, opt);
      if (y.rows() != c.seq || y.cols() != bert.d_model) {
        out.fail("encoder_bert: output shape differs from the input's");
      }
    }
    const auto t1 = Clock::now();
    ++out.tally.attempted;

    auto ref = std::make_unique<Reference>();
    ref->modeled_us = dev.total_time_us();
    ref->ops = op_table(dev);
    ref->launches = static_cast<double>(dev.launch_count());
    ref->score_bytes = static_cast<double>(dev.total_score_bytes());
    ref->fallbacks = static_cast<double>(dev.fallback_log().size());
    if (!refs[idx]) {
      refs[idx] = std::move(ref);
    } else if (ref->modeled_us != refs[idx]->modeled_us ||
               !(ref->ops == refs[idx]->ops)) {
      out.fail("encoder_bert: a repeat of call " + std::to_string(idx) +
               " changed its modeled time or op rows");
    }

    // An encoder call returns every position at once: its latency is its
    // time to first output, and the gap between consecutive completed
    // calls is its inter-output gap.
    const double ms = ms_between(t0, t1);
    ph.call_ms.push_back(ms);
    ph.hs.ttft_ms.push_back(ms);
    if (k > 0) ph.hs.itl_ms.push_back(ms_between(prev_done, t1));
    prev_done = t1;
    pass_tokens += static_cast<double>(c.seq);
    pass_s += ms / 1e3;
    if (idx + 1 == pass.size()) {
      ph.hs.add_pass(pass_tokens, pass_s);
      pass_tokens = pass_s = 0.0;
    }
    ph.launches += static_cast<double>(dev.launch_count());
  }
}

}  // namespace

Outcome run_encoder(const RunArgs& args) {
  Outcome out;
  const std::unique_ptr<Setup> setup = timed_setup(make_setup, out);
  const std::vector<Call> pass = make_pass(args.seed);
  std::vector<std::unique_ptr<Reference>> refs(pass.size());

  Phase ph;
  if (!args.trace) {
    measure(*setup, pass, args.seconds, kMinCalls, nullptr, refs, ph, out);
    put_host_metrics(ph.hs, out);
  } else {
    Phase plain;
    measure(*setup, pass, args.seconds / 2, pass.size(), nullptr, refs, plain,
            out);
    Tracer tracer;
    const auto t0 = Clock::now();
    measure(*setup, pass, args.seconds / 2, 2, &tracer, refs, ph, out);
    put_trace_overhead(ph.hs, plain.hs, out);
    // The kernel track of one dense seq=128 call.
    et::gpusim::Device dev;
    dev.set_traffic_only(true);
    et::core::ExecContext ctx(dev, 1);
    const auto bert = et::nn::bert_base();
    (void)et::nn::encoder_stack_forward(
        ctx, et::tensor::MatrixF(128, bert.d_model), setup->dense,
        et::nn::options_for(et::nn::Pipeline::kET, bert, 128));
    finish_trace(args, tracer, ms_between(t0, Clock::now()) / 1e3, &dev, out);
  }

  double tokens = 0.0, modeled = 0.0, launches = 0.0, score = 0.0, fb = 0.0;
  OpTable ops;
  for (std::size_t i = 0; i < pass.size(); ++i) {
    tokens += static_cast<double>(pass[i].seq);
    modeled += refs[i]->modeled_us;
    launches += refs[i]->launches;
    score += refs[i]->score_bytes;
    fb += refs[i]->fallbacks;
    ops.add(refs[i]->ops);
  }
  out.metrics["modeled_us_per_token"] = modeled / tokens;
  put_op_metrics(ops, out);
  out.metrics["core.score_bytes"] = score;
  out.metrics["core.fallbacks"] = fb;
  out.metrics["gpusim.launches"] = launches;
  out.metrics["gpusim.modeled_us_per_launch"] = modeled / launches;
  out.metrics["gpusim.host_us_per_launch"] = ph.hs.busy_s * 1e6 / ph.launches;
  out.metrics["nn.encoder_ms_per_call"] = median(ph.call_ms);
  return out;
}

}  // namespace perfbench
