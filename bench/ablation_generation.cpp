// Ablation: autoregressive generation cost on the E.T. stack — prefill
// vs decode, context-length scaling, and what pruning buys in the
// generation regime (where skinny GEMMs make everything weight-bound).
#include "bench_common.hpp"
#include "gpusim/device.hpp"
#include "nn/batched_generation.hpp"
#include "pruning/strategy.hpp"
#include "train/model.hpp"

namespace {

std::vector<et::nn::EncoderWeights> build_layers(
    const et::nn::ModelConfig& model, double ratio) {
  if (ratio <= 0.0) {
    std::vector<et::nn::EncoderWeights> layers;
    for (std::size_t l = 0; l < model.num_layers; ++l) {
      layers.push_back(et::nn::make_dense_encoder_weights(model, 1 + l));
    }
    return layers;
  }
  et::train::TrainModelConfig tcfg;
  tcfg.vocab_size = 64;
  tcfg.d_model = model.d_model;
  tcfg.num_heads = model.num_heads;
  tcfg.d_ff = model.d_ff;
  tcfg.num_layers = 1;
  et::train::TransformerModel shapes(tcfg, 9);
  const auto masks = et::pruning::compute_layer_masks(
      shapes.layers()[0], et::pruning::Strategy::kAttentionAware, ratio);
  const auto w = et::pruning::deploy_layer(
      shapes.layers()[0], masks, et::pruning::Strategy::kAttentionAware);
  return std::vector<et::nn::EncoderWeights>(model.num_layers, w);
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = et::bench::csv_mode(argc, argv);
  // DistilBERT-sized decoder-only model (6 causal layers).
  const auto model = et::nn::distilbert();
  auto opt = et::nn::options_for(et::nn::Pipeline::kET, model, 1,
                                 /*causal=*/true);

  std::printf("Ablation — KV-cached generation on the E.T. stack "
              "(6 layers, d=768)\n\n");
  et::bench::Table table({"config", "prefill_128_us", "per_token_at_128",
                          "per_token_at_512", "tokens_per_s_at_512"},
                         csv);
  for (const double ratio : {0.0, 0.7}) {
    const auto layers = build_layers(model, ratio);
    // One sequence through the decode engine, one position per tick, on
    // a traffic-only device: a position's modeled cost is the tick's
    // delta. The first 128 ticks are the prompt's prefill (token by token
    // through the cache); the inputs are zero rows, since traffic-only
    // cost does not depend on values.
    et::nn::BatchedGenerationScheduler sched(et::nn::Model(&layers, opt, 600),
                                             /*max_batch=*/1);
    et::nn::GenerationRequest req;
    req.prompt_tokens.assign(128, 0);
    req.max_new_tokens = 600 - 128;
    req.embed = [&](std::int32_t, std::size_t) {
      return et::tensor::MatrixF(1, model.d_model);
    };
    req.select = [](const et::tensor::MatrixF&) { return std::int32_t{0}; };
    (void)sched.submit(std::move(req));

    et::gpusim::Device dev;
    et::core::ExecContext ctx(dev);
    dev.set_traffic_only(true);
    const auto tick_cost = [&] {
      const double before = dev.total_time_us();
      sched.tick(ctx);
      return dev.total_time_us() - before;
    };
    double prefill = 0.0;
    for (int t = 0; t < 128; ++t) prefill += tick_cost();
    const double at_128 = tick_cost();
    while (sched.pool().slot(0).tokens() < 512) sched.tick(ctx);
    const double at_512 = tick_cost();

    table.add_row({ratio > 0 ? "attention-aware 70%" : "dense",
                   et::bench::fmt(prefill, 1), et::bench::fmt(at_128, 1),
                   et::bench::fmt(at_512, 1),
                   et::bench::fmt(1e6 / at_512, 0)});
  }
  table.print();
  std::printf("\nGeneration is launch/weight-bound: per-token cost grows "
              "only mildly with context (the cache read), and pruning's "
              "weight-traffic savings carry over.\n");
  return 0;
}
