#include "nn/encoder.hpp"

#include <algorithm>
#include <cassert>
#include <random>
#include <string>

#include "kernels/elementwise.hpp"
#include "kernels/linear.hpp"
#include "nn/layer_tail.hpp"
#include "nn/model.hpp"
#include "quant/quantize.hpp"
#include "tensor/random.hpp"

namespace et::nn {

namespace {

using numeric::Precision;

std::vector<float> small_random_vector(std::size_t n, std::uint64_t seed,
                                       float scale) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<float> dist(0.0f, scale);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

void apply_bias_gelu(tensor::MatrixF& h, std::span<const float> bias,
                     Precision p) {
  for (std::size_t r = 0; r < h.rows(); ++r) {
    for (std::size_t c = 0; c < h.cols(); ++c) {
      h(r, c) =
          numeric::round_to_storage(p, kernels::gelu_tanh(h(r, c) + bias[c]));
    }
  }
}

}  // namespace

EncoderWeights make_dense_encoder_weights(const ModelConfig& cfg,
                                          std::uint64_t seed) {
  EncoderWeights w;
  core::AttentionConfig acfg;
  acfg.d_model = cfg.d_model;
  acfg.num_heads = cfg.num_heads;
  w.attn = core::make_dense_weights(acfg, seed);

  tensor::MatrixF ff1(cfg.d_ff, cfg.d_model), ff2(cfg.d_model, cfg.d_ff);
  tensor::fill_normal(ff1, seed + 11, 0.0f,
                      1.0f / std::sqrt(static_cast<float>(cfg.d_model)));
  tensor::fill_normal(ff2, seed + 12, 0.0f,
                      1.0f / std::sqrt(static_cast<float>(cfg.d_ff)));
  w.w_ff1 = sparse::DenseWeight(std::move(ff1));
  w.w_ff2 = sparse::DenseWeight(std::move(ff2));
  w.b_ff1 = small_random_vector(cfg.d_ff, seed + 13, 0.02f);
  w.b_ff2 = small_random_vector(cfg.d_model, seed + 14, 0.02f);
  w.ln1_gamma.assign(cfg.d_model, 1.0f);
  w.ln1_beta.assign(cfg.d_model, 0.0f);
  w.ln2_gamma.assign(cfg.d_model, 1.0f);
  w.ln2_beta.assign(cfg.d_model, 0.0f);
  return w;
}

tensor::MatrixF encoder_forward(core::ExecContext& ctx,
                                const tensor::MatrixF& x,
                                const EncoderWeights& w,
                                const EncoderOptions& opt) {
  gpusim::Device& dev = ctx.device();
  assert(x.rows() == opt.attn.seq_len && x.cols() == opt.attn.d_model);
  const Precision p = opt.attn.precision;

  // --- self-attention ---
  tensor::MatrixF attn_out;
  switch (opt.pipeline) {
    case Pipeline::kModular:
      attn_out = core::modular_attention(ctx, x, w.attn, opt.attn);
      break;
    case Pipeline::kTensorRT:
      attn_out = core::fused_attention(ctx, x, w.attn, opt.attn,
                                       /*aggressive_fusion=*/false);
      break;
    case Pipeline::kFasterTransformer:
      attn_out = core::fused_attention(ctx, x, w.attn, opt.attn,
                                       /*aggressive_fusion=*/true);
      break;
    case Pipeline::kET:
      attn_out = core::adaptive_attention(ctx, x, w.attn, opt.attn,
                                          opt.adaptive);
      break;
  }

  if (opt.pipeline == Pipeline::kFasterTransformer ||
      opt.pipeline == Pipeline::kET) {
    return detail::layer_tail(
        ctx, std::move(attn_out), x,
        detail::encoder_tail(w, {"residual_layernorm1", "ff1", "ff2",
                                 "residual_layernorm2"}),
        p);
  }

  // PyTorch / TensorRT: residual and norm as separate kernels, and the
  // FFN's bias and activation outside the GEMMs.
  const bool modular = opt.pipeline == Pipeline::kModular;
  kernels::residual_add(dev, attn_out, x, p, "attn_residual");
  kernels::layernorm(dev, attn_out, w.ln1_gamma, w.ln1_beta, 1e-5f, p,
                     "layernorm1");
  kernels::LinearOptions lopt;
  lopt.precision = p;
  tensor::MatrixF h = kernels::linear(ctx, attn_out, w.w_ff1, lopt, "ff1").y;
  if (modular) {
    kernels::add_bias(dev, h, w.b_ff1, p, "ff1_bias");
    kernels::gelu(dev, h, p, "gelu");
  } else {
    // TensorRT: bias+GELU fused into one epilogue kernel (still a global
    // round trip of the d_ff-wide activation).
    auto launch = dev.launch({.name = "ff1_bias_gelu",
                              .ctas = std::max<std::size_t>(1, h.size() / 4096),
                              .shared_bytes_per_cta = 0,
                              .pattern = gpusim::AccessPattern::kStreaming});
    launch.load_bytes(h.size() * numeric::storage_bytes(p));
    launch.store_bytes(h.size() * numeric::storage_bytes(p));
    launch.fp_ops(9 * h.size());
    launch.finish();
    if (!dev.traffic_only()) apply_bias_gelu(h, w.b_ff1, p);
  }
  tensor::MatrixF y = kernels::linear(ctx, h, w.w_ff2, lopt, "ff2").y;
  kernels::add_bias(dev, y, w.b_ff2, p,
                    modular ? "ff2_bias" : "ff2_bias_fused");
  kernels::residual_add(dev, y, attn_out, p, "mlp_residual");
  kernels::layernorm(dev, y, w.ln2_gamma, w.ln2_beta, 1e-5f, p, "layernorm2");
  return y;
}

tensor::MatrixF encoder_stack_forward(core::ExecContext& ctx,
                                      const tensor::MatrixF& x,
                                      const std::vector<EncoderWeights>& layers,
                                      const EncoderOptions& opt) {
  tensor::MatrixF h = x;
  for (const auto& layer : layers) {
    h = encoder_forward(ctx, h, layer, opt);
  }
  return h;
}

std::vector<tensor::MatrixF> batched_encoder_forward(
    core::ExecContext& ctx, const std::vector<tensor::MatrixF>& batch,
    const EncoderWeights& w, const EncoderOptions& opt) {
  std::size_t total_rows = 0;
  for (const auto& x : batch) {
    assert(x.cols() == opt.attn.d_model);
    total_rows += x.rows();
  }

  // --- attention per sample (adaptive per-sequence-length dispatch, the
  // padding-free property TurboTransformer argues for) ---
  tensor::MatrixF stacked(total_rows, opt.attn.d_model);
  tensor::MatrixF residual_src(total_rows, opt.attn.d_model);
  std::size_t row0 = 0;
  for (const auto& x : batch) {
    core::AttentionConfig cfg = opt.attn;
    cfg.seq_len = x.rows();
    const tensor::MatrixF a =
        core::adaptive_attention(ctx, x, w.attn, cfg, opt.adaptive);
    const std::size_t offset = row0 * x.cols();
    std::ranges::copy(a.flat(), stacked.flat().begin() + offset);
    std::ranges::copy(x.flat(), residual_src.flat().begin() + offset);
    row0 += x.rows();
  }

  // --- everything else on the stacked activations: one kernel set for
  // the whole batch ---
  const tensor::MatrixF y = detail::layer_tail(
      ctx, std::move(stacked), residual_src,
      detail::encoder_tail(w, {"batched_residual_layernorm1", "batched_ff1",
                               "batched_ff2", "batched_residual_layernorm2"}),
      opt.attn.precision);

  std::vector<tensor::MatrixF> out;
  out.reserve(batch.size());
  row0 = 0;
  for (const auto& x : batch) {
    out.push_back(tensor::slice_rows(y, row0, x.rows()));
    row0 += x.rows();
  }
  return out;
}

namespace detail {

LayerTail encoder_tail(const EncoderWeights& w,
                       std::array<std::string_view, 4> names,
                       const QuantizedLayer* int8) {
  return {w.w_ff1,     w.w_ff2,    w.b_ff1,     w.b_ff2, w.ln1_gamma,
          w.ln1_beta,  w.ln2_gamma, w.ln2_beta, names,   int8};
}

tensor::MatrixF layer_tail(core::ExecContext& ctx, tensor::MatrixF a,
                           const tensor::MatrixF& residual, const LayerTail& t,
                           Precision p) {
  gpusim::Device& dev = ctx.device();
  const auto ffn = [&](const tensor::MatrixF& x, const sparse::AnyWeight& w,
                       const quant::QuantizedWeight* q,
                       std::string_view name) -> tensor::MatrixF {
    if (q != nullptr) {
      return quant::int8_linear(ctx, x, *q, std::string(name) + "_int8");
    }
    kernels::LinearOptions lopt;
    lopt.precision = p;
    return kernels::linear(ctx, x, w, lopt, name).y;
  };

  kernels::fused_residual_layernorm(dev, a, residual, t.ln1_gamma, t.ln1_beta,
                                    p, t.names[0]);
  // bias+GELU and the second bias are folded into the GEMM epilogues: no
  // extra kernels and no extra global traffic (the activation is
  // transformed in registers before the store the GEMM performs anyway).
  tensor::MatrixF h = ffn(a, t.w_ff1, t.int8 ? &t.int8->ff1 : nullptr,
                          t.names[1]);
  if (!dev.traffic_only()) apply_bias_gelu(h, t.b_ff1, p);
  tensor::MatrixF y = ffn(h, t.w_ff2, t.int8 ? &t.int8->ff2 : nullptr,
                          t.names[2]);
  if (!dev.traffic_only()) {
    for (std::size_t r = 0; r < y.rows(); ++r) {
      for (std::size_t c = 0; c < y.cols(); ++c) {
        y(r, c) = numeric::round_to_storage(p, y(r, c) + t.b_ff2[c]);
      }
    }
  }
  kernels::fused_residual_layernorm(dev, y, a, t.ln2_gamma, t.ln2_beta, p,
                                    t.names[3]);
  return y;
}

}  // namespace detail

EncoderOptions options_for(Pipeline pipeline, const ModelConfig& model,
                           std::size_t seq_len, bool causal_mask) {
  EncoderOptions opt;
  opt.pipeline = pipeline;
  opt.attn.seq_len = seq_len;
  opt.attn.d_model = model.d_model;
  opt.attn.num_heads = model.num_heads;
  opt.attn.causal_mask = causal_mask;
  switch (pipeline) {
    case Pipeline::kModular:
      // PyTorch default: FP32 general-core math, scale applied after QKᵀ.
      opt.attn.precision = Precision::kFp32;
      opt.attn.scale_before_multiply = false;
      break;
    case Pipeline::kTensorRT:
    case Pipeline::kFasterTransformer:
      // Mixed precision (FP32 accumulate) — required without the §3.3
      // reorder to dodge FP16 overflow.
      opt.attn.precision = Precision::kMixed;
      opt.attn.scale_before_multiply = false;
      break;
    case Pipeline::kET:
      // Pure FP16 enabled by the scale reorder.
      opt.attn.precision = Precision::kPureFp16;
      opt.attn.scale_before_multiply = true;
      break;
  }
  return opt;
}

}  // namespace et::nn
