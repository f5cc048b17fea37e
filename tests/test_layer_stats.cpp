// Golden launch records for the layer paths: each launch's name, grid,
// shared memory, traffic, op counts and slot for encoder_forward under every
// pipeline in kFp32 and kPureFp16, batched_encoder_forward, decoder_forward
// and a two-slot decode scheduler run over dense, W_VO, condensed-V and int8
// weights. All fields are integers, so the values are exact on any platform;
// a change to any of them is a change to the modeled clock and must be
// deliberate.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "nn/batched_generation.hpp"
#include "nn/decoder.hpp"
#include "nn/encoder.hpp"
#include "tensor/random.hpp"

namespace {

using et::nn::Pipeline;
using et::numeric::Precision;
using et::tensor::MatrixF;

struct Golden {
  std::string name;
  std::size_t ctas;
  std::size_t shared_bytes;
  std::uint64_t load_bytes;
  std::uint64_t store_bytes;
  std::uint64_t score_bytes;
  std::uint64_t fp_ops;
  std::uint64_t tensor_ops;
  int slot;

  bool operator==(const Golden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  return os << g.name << " ctas=" << g.ctas << " shared=" << g.shared_bytes
            << " load=" << g.load_bytes << " store=" << g.store_bytes
            << " score=" << g.score_bytes << " fp=" << g.fp_ops
            << " tensor=" << g.tensor_ops << " slot=" << g.slot;
}

struct Case {
  std::string path;
  std::vector<Golden> launches;
};

/// d_model 32, 2 heads, d_ff 64, 2 layers: encoders see 12 rows, the
/// batched encoder 5 + 9, the decoder 6 rows over a 10-row memory.
const std::vector<Case>& cases() {
  // clang-format off
  static const std::vector<Case> kCases = {
      {"encoder PyTorch fp32",
       {
        {"q_linear.dense[algo0_64x64]", 1, 16384, 5632, 1536, 0, 24576, 0, -1},
        {"k_linear.dense[algo0_64x64]", 1, 16384, 5632, 1536, 0, 24576, 0, -1},
        {"v_linear.dense[algo0_64x64]", 1, 16384, 5632, 1536, 0, 24576, 0, -1},
        {"bmm_qk", 2, 32768, 3072, 1152, 1152, 9216, 0, -1},
        {"scale", 1, 0, 1152, 1152, 2304, 288, 0, -1},
        {"mask", 1, 0, 1152, 1152, 2304, 144, 0, -1},
        {"softmax", 1, 0, 1152, 1152, 2304, 1440, 0, -1},
        {"bmm_sv", 2, 32768, 2688, 1536, 1152, 9216, 0, -1},
        {"out_linear.dense[algo0_64x64]", 1, 16384, 5632, 1536, 0, 24576, 0, -1},
        {"attn_residual", 1, 0, 3072, 1536, 0, 384, 0, -1},
        {"layernorm1", 1, 0, 1792, 1536, 0, 3840, 0, -1},
        {"ff1.dense[algo0_64x64]", 1, 16384, 9728, 3072, 0, 49152, 0, -1},
        {"ff1_bias", 1, 0, 3328, 3072, 0, 768, 0, -1},
        {"gelu", 1, 0, 3072, 3072, 0, 6144, 0, -1},
        {"ff2.dense[algo0_64x64]", 1, 16384, 11264, 1536, 0, 49152, 0, -1},
        {"ff2_bias", 1, 0, 1664, 1536, 0, 384, 0, -1},
        {"mlp_residual", 1, 0, 3072, 1536, 0, 384, 0, -1},
        {"layernorm2", 1, 0, 1792, 1536, 0, 3840, 0, -1},
       }},
      {"encoder PyTorch fp16",
       {
        {"q_linear.dense[algo0_64x64]", 1, 8192, 2816, 768, 0, 0, 24576, -1},
        {"k_linear.dense[algo0_64x64]", 1, 8192, 2816, 768, 0, 0, 24576, -1},
        {"v_linear.dense[algo0_64x64]", 1, 8192, 2816, 768, 0, 0, 24576, -1},
        {"bmm_qk", 2, 16384, 1536, 576, 576, 0, 9216, -1},
        {"scale", 1, 0, 576, 576, 1152, 288, 0, -1},
        {"mask", 1, 0, 576, 576, 1152, 144, 0, -1},
        {"softmax", 1, 0, 576, 576, 1152, 1440, 0, -1},
        {"bmm_sv", 2, 16384, 1344, 768, 576, 0, 9216, -1},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 2816, 768, 0, 0, 24576, -1},
        {"attn_residual", 1, 0, 1536, 768, 0, 384, 0, -1},
        {"layernorm1", 1, 0, 896, 768, 0, 3840, 0, -1},
        {"ff1.dense[algo0_64x64]", 1, 8192, 4864, 1536, 0, 0, 49152, -1},
        {"ff1_bias", 1, 0, 1664, 1536, 0, 768, 0, -1},
        {"gelu", 1, 0, 1536, 1536, 0, 6144, 0, -1},
        {"ff2.dense[algo0_64x64]", 1, 8192, 5632, 768, 0, 0, 49152, -1},
        {"ff2_bias", 1, 0, 832, 768, 0, 384, 0, -1},
        {"mlp_residual", 1, 0, 1536, 768, 0, 384, 0, -1},
        {"layernorm2", 1, 0, 896, 768, 0, 3840, 0, -1},
       }},
      {"encoder TensorRT fp32",
       {
        {"qkv_linear[algo1_64x128]", 1, 24576, 13824, 4608, 0, 73728, 0, -1},
        {"trt_qk_scale", 2, 32768, 3072, 1152, 1152, 9504, 0, -1},
        {"trt_mask", 1, 0, 1152, 1152, 2304, 144, 0, -1},
        {"trt_softmax", 1, 0, 1152, 1152, 2304, 1440, 0, -1},
        {"trt_sv", 2, 32768, 2688, 1536, 1152, 9216, 0, -1},
        {"out_linear.dense[algo0_64x64]", 1, 16384, 5632, 1536, 0, 24576, 0, -1},
        {"attn_residual", 1, 0, 3072, 1536, 0, 384, 0, -1},
        {"layernorm1", 1, 0, 1792, 1536, 0, 3840, 0, -1},
        {"ff1.dense[algo0_64x64]", 1, 16384, 9728, 3072, 0, 49152, 0, -1},
        {"ff1_bias_gelu", 1, 0, 3072, 3072, 0, 6912, 0, -1},
        {"ff2.dense[algo0_64x64]", 1, 16384, 11264, 1536, 0, 49152, 0, -1},
        {"ff2_bias_fused", 1, 0, 1664, 1536, 0, 384, 0, -1},
        {"mlp_residual", 1, 0, 3072, 1536, 0, 384, 0, -1},
        {"layernorm2", 1, 0, 1792, 1536, 0, 3840, 0, -1},
       }},
      {"encoder TensorRT fp16",
       {
        {"qkv_linear[algo1_64x128]", 1, 12288, 6912, 2304, 0, 0, 73728, -1},
        {"trt_qk_scale", 2, 16384, 1536, 576, 576, 0, 9504, -1},
        {"trt_mask", 1, 0, 576, 576, 1152, 144, 0, -1},
        {"trt_softmax", 1, 0, 576, 576, 1152, 1440, 0, -1},
        {"trt_sv", 2, 16384, 1344, 768, 576, 0, 9216, -1},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 2816, 768, 0, 0, 24576, -1},
        {"attn_residual", 1, 0, 1536, 768, 0, 384, 0, -1},
        {"layernorm1", 1, 0, 896, 768, 0, 3840, 0, -1},
        {"ff1.dense[algo0_64x64]", 1, 8192, 4864, 1536, 0, 0, 49152, -1},
        {"ff1_bias_gelu", 1, 0, 1536, 1536, 0, 6912, 0, -1},
        {"ff2.dense[algo0_64x64]", 1, 8192, 5632, 768, 0, 0, 49152, -1},
        {"ff2_bias_fused", 1, 0, 832, 768, 0, 384, 0, -1},
        {"mlp_residual", 1, 0, 1536, 768, 0, 384, 0, -1},
        {"layernorm2", 1, 0, 896, 768, 0, 3840, 0, -1},
       }},
      {"encoder FasterTransformer fp32",
       {
        {"qkv_linear[algo1_64x128]", 1, 24576, 13824, 4608, 0, 73728, 0, -1},
        {"trt_qk_scale", 2, 32768, 3072, 1152, 1152, 9504, 0, -1},
        {"ft_mask_softmax", 1, 0, 1152, 1152, 2304, 1584, 0, -1},
        {"trt_sv", 2, 32768, 2688, 1536, 1152, 9216, 0, -1},
        {"out_linear.dense[algo0_64x64]", 1, 16384, 5632, 1536, 0, 24576, 0, -1},
        {"residual_layernorm1", 1, 0, 3328, 1536, 0, 4608, 0, -1},
        {"ff1.dense[algo0_64x64]", 1, 16384, 9728, 3072, 0, 49152, 0, -1},
        {"ff2.dense[algo0_64x64]", 1, 16384, 11264, 1536, 0, 49152, 0, -1},
        {"residual_layernorm2", 1, 0, 3328, 1536, 0, 4608, 0, -1},
       }},
      {"encoder FasterTransformer fp16",
       {
        {"qkv_linear[algo1_64x128]", 1, 12288, 6912, 2304, 0, 0, 73728, -1},
        {"trt_qk_scale", 2, 16384, 1536, 576, 576, 0, 9504, -1},
        {"ft_mask_softmax", 1, 0, 576, 576, 1152, 1584, 0, -1},
        {"trt_sv", 2, 16384, 1344, 768, 576, 0, 9216, -1},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 2816, 768, 0, 0, 24576, -1},
        {"residual_layernorm1", 1, 0, 1664, 768, 0, 4608, 0, -1},
        {"ff1.dense[algo0_64x64]", 1, 8192, 4864, 1536, 0, 0, 49152, -1},
        {"ff2.dense[algo0_64x64]", 1, 8192, 5632, 768, 0, 0, 49152, -1},
        {"residual_layernorm2", 1, 0, 1664, 768, 0, 4608, 0, -1},
       }},
      {"encoder E.T. fp32",
       {
        {"qkv_linear[algo1_64x128]", 1, 24576, 13824, 4608, 0, 73728, 0, -1},
        {"otf_attention", 2, 3840, 4608, 1536, 0, 20400, 0, -1},
        {"out_linear.dense[algo0_64x64]", 1, 16384, 5632, 1536, 0, 24576, 0, -1},
        {"residual_layernorm1", 1, 0, 3328, 1536, 0, 4608, 0, -1},
        {"ff1.dense[algo0_64x64]", 1, 16384, 9728, 3072, 0, 49152, 0, -1},
        {"ff2.dense[algo0_64x64]", 1, 16384, 11264, 1536, 0, 49152, 0, -1},
        {"residual_layernorm2", 1, 0, 3328, 1536, 0, 4608, 0, -1},
       }},
      {"encoder E.T. fp16",
       {
        {"qkv_linear[algo1_64x128]", 1, 12288, 6912, 2304, 0, 0, 73728, -1},
        {"otf_attention", 2, 1920, 2304, 768, 0, 1968, 18432, -1},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 2816, 768, 0, 0, 24576, -1},
        {"residual_layernorm1", 1, 0, 1664, 768, 0, 4608, 0, -1},
        {"ff1.dense[algo0_64x64]", 1, 8192, 4864, 1536, 0, 0, 49152, -1},
        {"ff2.dense[algo0_64x64]", 1, 8192, 5632, 768, 0, 0, 49152, -1},
        {"residual_layernorm2", 1, 0, 1664, 768, 0, 4608, 0, -1},
       }},
      {"batched_encoder",
       {
        {"qkv_linear[algo1_64x128]", 1, 12288, 6464, 960, 0, 0, 30720, -1},
        {"otf_attention", 2, 1696, 960, 320, 0, 435, 3200, -1},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 2368, 320, 0, 0, 10240, -1},
        {"qkv_linear[algo1_64x128]", 1, 12288, 6720, 1728, 0, 0, 55296, -1},
        {"otf_attention", 2, 1824, 1728, 576, 0, 1179, 10368, -1},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 2624, 576, 0, 0, 18432, -1},
        {"batched_residual_layernorm1", 1, 0, 1920, 896, 0, 5376, 0, -1},
        {"batched_ff1.dense[algo0_64x64]", 1, 8192, 4992, 1792, 0, 0, 57344, -1},
        {"batched_ff2.dense[algo0_64x64]", 1, 8192, 5888, 896, 0, 0, 57344, -1},
        {"batched_residual_layernorm2", 1, 0, 1920, 896, 0, 5376, 0, -1},
       }},
      {"decoder",
       {
        {"qkv_linear[algo1_64x128]", 1, 12288, 6528, 1152, 0, 0, 36864, -1},
        {"otf_attention", 2, 1728, 1152, 384, 0, 588, 4608, -1},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 2432, 384, 0, 0, 12288, -1},
        {"dec_residual_layernorm1", 1, 0, 896, 384, 0, 2304, 0, -1},
        {"xattn_q_linear.dense[algo0_64x64]", 1, 8192, 2432, 384, 0, 0, 12288, -1},
        {"xattn_k_linear.dense[algo0_64x64]", 1, 8192, 2688, 640, 0, 0, 20480, -1},
        {"xattn_v_linear.dense[algo0_64x64]", 1, 8192, 2688, 640, 0, 0, 20480, -1},
        {"otf_cross_attention", 2, 1856, 1664, 384, 0, 792, 7680, -1},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 2432, 384, 0, 0, 12288, -1},
        {"dec_residual_layernorm2", 1, 0, 896, 384, 0, 2304, 0, -1},
        {"dec_ff1.dense[algo0_64x64]", 1, 8192, 4480, 768, 0, 0, 24576, -1},
        {"dec_ff2.dense[algo0_64x64]", 1, 8192, 4864, 384, 0, 0, 24576, -1},
        {"dec_residual_layernorm3", 1, 0, 896, 384, 0, 2304, 0, -1},
       }},
      {"scheduler dense",
       {
        {"gen_qkv_batched[algo0_64x64x3]", 3, 8192, 6272, 384, 0, 0, 12288, -1},
        {"incremental_otf_attention", 2, 34, 192, 64, 0, 10, 128, 0},
        {"incremental_otf_attention", 2, 34, 192, 64, 0, 10, 128, 1},
        {"gen_out_linear.dense[algo0_64x64]", 1, 8192, 2176, 128, 0, 0, 4096, -1},
        {"gen_residual_layernorm1", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4224, 256, 0, 0, 8192, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4352, 128, 0, 0, 8192, -1},
        {"gen_residual_layernorm2", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_qkv_batched[algo0_64x64x3]", 3, 8192, 6272, 384, 0, 0, 12288, -1},
        {"incremental_otf_attention", 2, 34, 192, 64, 0, 10, 128, 0},
        {"incremental_otf_attention", 2, 34, 192, 64, 0, 10, 128, 1},
        {"gen_out_linear.dense[algo0_64x64]", 1, 8192, 2176, 128, 0, 0, 4096, -1},
        {"gen_residual_layernorm1", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4224, 256, 0, 0, 8192, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4352, 128, 0, 0, 8192, -1},
        {"gen_residual_layernorm2", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_qkv_batched[algo0_64x64x3]", 3, 8192, 6208, 192, 0, 0, 6144, -1},
        {"incremental_otf_attention", 2, 36, 320, 64, 0, 20, 256, 1},
        {"gen_out_linear.dense[algo0_64x64]", 1, 8192, 2112, 64, 0, 0, 2048, -1},
        {"gen_residual_layernorm1", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4160, 128, 0, 0, 4096, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4224, 64, 0, 0, 4096, -1},
        {"gen_residual_layernorm2", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_qkv_batched[algo0_64x64x3]", 3, 8192, 6208, 192, 0, 0, 6144, -1},
        {"incremental_otf_attention", 2, 36, 320, 64, 0, 20, 256, 1},
        {"gen_out_linear.dense[algo0_64x64]", 1, 8192, 2112, 64, 0, 0, 2048, -1},
        {"gen_residual_layernorm1", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4160, 128, 0, 0, 4096, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4224, 64, 0, 0, 4096, -1},
        {"gen_residual_layernorm2", 1, 0, 256, 64, 0, 384, 0, -1},
       }},
      {"scheduler wvo",
       {
        {"gen_qkv_batched[algo0_64x64x3]", 3, 8192, 8320, 512, 0, 0, 16384, -1},
        {"incremental_otf_attention", 2, 34, 256, 64, 0, 10, 192, 0},
        {"incremental_otf_attention", 2, 34, 256, 64, 0, 10, 192, 1},
        {"gen_residual_layernorm1", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4224, 256, 0, 0, 8192, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4352, 128, 0, 0, 8192, -1},
        {"gen_residual_layernorm2", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_qkv_batched[algo0_64x64x3]", 3, 8192, 8320, 512, 0, 0, 16384, -1},
        {"incremental_otf_attention", 2, 34, 256, 64, 0, 10, 192, 0},
        {"incremental_otf_attention", 2, 34, 256, 64, 0, 10, 192, 1},
        {"gen_residual_layernorm1", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4224, 256, 0, 0, 8192, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4352, 128, 0, 0, 8192, -1},
        {"gen_residual_layernorm2", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_qkv_batched[algo0_64x64x3]", 3, 8192, 8256, 256, 0, 0, 8192, -1},
        {"incremental_otf_attention", 2, 36, 448, 64, 0, 20, 384, 1},
        {"gen_residual_layernorm1", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4160, 128, 0, 0, 4096, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4224, 64, 0, 0, 4096, -1},
        {"gen_residual_layernorm2", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_qkv_batched[algo0_64x64x3]", 3, 8192, 8256, 256, 0, 0, 8192, -1},
        {"incremental_otf_attention", 2, 36, 448, 64, 0, 20, 384, 1},
        {"gen_residual_layernorm1", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4160, 128, 0, 0, 4096, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4224, 64, 0, 0, 4096, -1},
        {"gen_residual_layernorm2", 1, 0, 256, 64, 0, 384, 0, -1},
       }},
      {"scheduler condensed_v",
       {
        {"gen_q_linear.dense[algo0_64x64]", 1, 8192, 2176, 128, 0, 0, 4096, -1},
        {"gen_k_linear.dense[algo0_64x64]", 1, 8192, 2176, 128, 0, 0, 4096, -1},
        {"gen_v_linear.row_gemm[algo0_64x64]", 1, 8192, 1152, 64, 0, 0, 2048, -1},
        {"incremental_otf_attention", 2, 34, 160, 64, 0, 10, 96, 0},
        {"incremental_otf_attention", 2, 34, 160, 64, 0, 10, 96, 1},
        {"gen_out_linear.dense[algo0_64x64]", 1, 8192, 2176, 128, 0, 0, 4096, -1},
        {"gen_residual_layernorm1", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4224, 256, 0, 0, 8192, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4352, 128, 0, 0, 8192, -1},
        {"gen_residual_layernorm2", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_q_linear.dense[algo0_64x64]", 1, 8192, 2176, 128, 0, 0, 4096, -1},
        {"gen_k_linear.dense[algo0_64x64]", 1, 8192, 2176, 128, 0, 0, 4096, -1},
        {"gen_v_linear.row_gemm[algo0_64x64]", 1, 8192, 1152, 64, 0, 0, 2048, -1},
        {"incremental_otf_attention", 2, 34, 160, 64, 0, 10, 96, 0},
        {"incremental_otf_attention", 2, 34, 160, 64, 0, 10, 96, 1},
        {"gen_out_linear.dense[algo0_64x64]", 1, 8192, 2176, 128, 0, 0, 4096, -1},
        {"gen_residual_layernorm1", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4224, 256, 0, 0, 8192, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4352, 128, 0, 0, 8192, -1},
        {"gen_residual_layernorm2", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_q_linear.dense[algo0_64x64]", 1, 8192, 2112, 64, 0, 0, 2048, -1},
        {"gen_k_linear.dense[algo0_64x64]", 1, 8192, 2112, 64, 0, 0, 2048, -1},
        {"gen_v_linear.row_gemm[algo0_64x64]", 1, 8192, 1088, 32, 0, 0, 1024, -1},
        {"incremental_otf_attention", 2, 36, 256, 64, 0, 20, 192, 1},
        {"gen_out_linear.dense[algo0_64x64]", 1, 8192, 2112, 64, 0, 0, 2048, -1},
        {"gen_residual_layernorm1", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4160, 128, 0, 0, 4096, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4224, 64, 0, 0, 4096, -1},
        {"gen_residual_layernorm2", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_q_linear.dense[algo0_64x64]", 1, 8192, 2112, 64, 0, 0, 2048, -1},
        {"gen_k_linear.dense[algo0_64x64]", 1, 8192, 2112, 64, 0, 0, 2048, -1},
        {"gen_v_linear.row_gemm[algo0_64x64]", 1, 8192, 1088, 32, 0, 0, 1024, -1},
        {"incremental_otf_attention", 2, 36, 256, 64, 0, 20, 192, 1},
        {"gen_out_linear.dense[algo0_64x64]", 1, 8192, 2112, 64, 0, 0, 2048, -1},
        {"gen_residual_layernorm1", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_ff1.dense[algo0_64x64]", 1, 8192, 4160, 128, 0, 0, 4096, -1},
        {"gen_ff2.dense[algo0_64x64]", 1, 8192, 4224, 64, 0, 0, 4096, -1},
        {"gen_residual_layernorm2", 1, 0, 256, 64, 0, 384, 0, -1},
       }},
      {"scheduler int8",
       {
        {"gen_qkv_int8[x3]", 3, 8192, 3528, 384, 0, 192, 6144, -1},
        {"incremental_otf_attention", 2, 34, 136, 64, 0, 10, 128, 0},
        {"incremental_otf_attention", 2, 34, 136, 64, 0, 10, 128, 1},
        {"gen_out_int8", 1, 8192, 1224, 128, 0, 64, 2048, -1},
        {"gen_residual_layernorm1", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_ff1_int8", 1, 8192, 2376, 256, 0, 128, 4096, -1},
        {"gen_ff2_int8", 1, 8192, 2312, 128, 0, 64, 4096, -1},
        {"gen_residual_layernorm2", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_qkv_int8[x3]", 3, 8192, 3528, 384, 0, 192, 6144, -1},
        {"incremental_otf_attention", 2, 34, 136, 64, 0, 10, 128, 0},
        {"incremental_otf_attention", 2, 34, 136, 64, 0, 10, 128, 1},
        {"gen_out_int8", 1, 8192, 1224, 128, 0, 64, 2048, -1},
        {"gen_residual_layernorm1", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_ff1_int8", 1, 8192, 2376, 256, 0, 128, 4096, -1},
        {"gen_ff2_int8", 1, 8192, 2312, 128, 0, 64, 4096, -1},
        {"gen_residual_layernorm2", 1, 0, 384, 128, 0, 768, 0, -1},
        {"gen_qkv_int8[x3]", 3, 8192, 3492, 192, 0, 96, 3072, -1},
        {"incremental_otf_attention", 2, 36, 208, 64, 0, 20, 256, 1},
        {"gen_out_int8", 1, 8192, 1188, 64, 0, 32, 1024, -1},
        {"gen_residual_layernorm1", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_ff1_int8", 1, 8192, 2340, 128, 0, 64, 2048, -1},
        {"gen_ff2_int8", 1, 8192, 2244, 64, 0, 32, 2048, -1},
        {"gen_residual_layernorm2", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_qkv_int8[x3]", 3, 8192, 3492, 192, 0, 96, 3072, -1},
        {"incremental_otf_attention", 2, 36, 208, 64, 0, 20, 256, 1},
        {"gen_out_int8", 1, 8192, 1188, 64, 0, 32, 1024, -1},
        {"gen_residual_layernorm1", 1, 0, 256, 64, 0, 384, 0, -1},
        {"gen_ff1_int8", 1, 8192, 2340, 128, 0, 64, 2048, -1},
        {"gen_ff2_int8", 1, 8192, 2244, 64, 0, 32, 2048, -1},
        {"gen_residual_layernorm2", 1, 0, 256, 64, 0, 384, 0, -1},
       }},
  };
  // clang-format on
  return kCases;
}

et::nn::ModelConfig model_config() {
  et::nn::ModelConfig cfg;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  cfg.num_layers = 2;
  return cfg;
}

MatrixF input(std::size_t rows, std::uint64_t seed) {
  MatrixF x(rows, model_config().d_model);
  et::tensor::fill_normal(x, seed, 0.0f, 0.5f);
  return x;
}

void run_encoder(et::core::ExecContext& ctx, Pipeline pipeline,
                 Precision precision) {
  const auto cfg = model_config();
  auto opt = et::nn::options_for(pipeline, cfg, 12);
  opt.attn.precision = precision;
  (void)et::nn::encoder_forward(
      ctx, input(12, 1), et::nn::make_dense_encoder_weights(cfg, 2), opt);
}

/// Two requests share the first tick (the fused batched step); the longer
/// one then runs its last tick alone (the per-slot path).
void run_scheduler(et::core::ExecContext& ctx, const std::string& form) {
  const auto cfg = model_config();
  std::vector<et::nn::EncoderWeights> layers;
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    layers.push_back(et::nn::make_dense_encoder_weights(cfg, 20 + l));
  }
  const auto dense_of = [](const et::sparse::AnyWeight& w) {
    return std::get<et::sparse::DenseWeight>(w).matrix();
  };
  std::vector<std::uint32_t> kept;  // first half of every head's W_V rows
  for (std::uint32_t r = 0; r < cfg.d_model; ++r) {
    if (r % 16 < 8) kept.push_back(r);
  }
  for (auto& w : layers) {
    if (form == "wvo") {
      w.attn.vo = et::core::precompute_vo(dense_of(w.attn.wv),
                                          dense_of(w.attn.wo), cfg.num_heads);
    } else if (form == "condensed_v") {
      w.attn.wv = et::sparse::RowPrunedWeight::from_kept_rows(
          dense_of(w.attn.wv), kept);
    }
  }
  const auto opt = et::nn::options_for(Pipeline::kET, cfg, 1, true);
  const bool int8 = form == "int8";
  const et::nn::Model model(
      &layers, opt, /*max_context=*/8,
      int8 ? std::optional(et::nn::WeightFormat::kInt8) : std::nullopt);
  et::core::PagedKVOptions kv;
  if (int8) kv.precision = et::core::KvPrecision::kInt8;
  et::nn::BatchedGenerationScheduler sched(model, 2, kv);
  for (const std::size_t new_tokens : {1u, 2u}) {
    et::nn::GenerationRequest req;
    req.first_token = 1;
    req.max_new_tokens = new_tokens;
    req.embed = [](std::int32_t token, std::size_t pos) {
      return input(1, 100 + 7 * static_cast<std::uint64_t>(token) + pos);
    };
    req.select = [](const MatrixF&) { return std::int32_t{3}; };
    (void)sched.submit(std::move(req));
  }
  (void)sched.run(ctx);
}

void run(et::core::ExecContext& ctx, const std::string& path) {
  const auto cfg = model_config();
  for (const Pipeline p : {Pipeline::kModular, Pipeline::kTensorRT,
                           Pipeline::kFasterTransformer, Pipeline::kET}) {
    for (const Precision prec : {Precision::kFp32, Precision::kPureFp16}) {
      if (path == "encoder " + std::string(to_string(p)) + " " +
                      std::string(to_string(prec))) {
        return run_encoder(ctx, p, prec);
      }
    }
  }
  if (path == "batched_encoder") {
    (void)et::nn::batched_encoder_forward(
        ctx, {input(5, 3), input(9, 4)},
        et::nn::make_dense_encoder_weights(cfg, 5),
        et::nn::options_for(Pipeline::kET, cfg, 5));
  } else if (path == "decoder") {
    (void)et::nn::decoder_forward(ctx, input(6, 6), input(10, 7),
                                  et::nn::make_dense_decoder_weights(cfg, 8),
                                  et::nn::options_for(Pipeline::kET, cfg, 6));
  } else if (path.starts_with("scheduler ")) {
    run_scheduler(ctx, path.substr(10));
  } else {
    FAIL() << "unknown path " << path;
  }
}

std::vector<Golden> launches(const std::string& path) {
  et::gpusim::Device dev;
  et::core::ExecContext ctx(dev);
  run(ctx, path);
  std::vector<Golden> got;
  for (const auto& k : dev.history()) {
    got.push_back({k.name, k.ctas, k.shared_bytes_per_cta,
                   k.global_load_bytes, k.global_store_bytes, k.score_bytes,
                   k.fp_ops, k.tensor_ops, k.slot});
  }
  return got;
}

TEST(LayerStatsGolden, EveryLaunchMatches) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.path);
    const std::vector<Golden> got = launches(c.path);
    ASSERT_EQ(got.size(), c.launches.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], c.launches[i]) << "launch " << i;
    }
  }
}

TEST(LayerStatsGolden, CoversEveryLayerPath) {
  // 4 pipelines × 2 policies, the batched encoder, the decoder, and the
  // scheduler over 4 weight forms.
  EXPECT_EQ(cases().size(), 4 * 2 + 1 + 1 + 4u);
}

}  // namespace
