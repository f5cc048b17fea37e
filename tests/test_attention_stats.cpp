// Golden launch records for every attention operator: each launch's name,
// grid, shared memory, traffic and op counts under kFp32 and kPureFp16 and
// every weight form the operator accepts, on a traffic-only device. All
// fields are integers, so the values are exact on any platform; a change to
// any of them is a change to the modeled clock and must be deliberate.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "core/attention.hpp"

namespace {

using et::core::AttentionConfig;
using et::core::AttentionWeights;
using et::numeric::Precision;
using et::tensor::MatrixF;

enum class Form { kDense, kPrecomputedVO, kCondensedV };

struct Golden {
  std::string name;
  std::size_t ctas;
  std::size_t shared_bytes;
  std::uint64_t load_bytes;
  std::uint64_t store_bytes;
  std::uint64_t score_bytes;
  std::uint64_t fp_ops;
  std::uint64_t tensor_ops;

  bool operator==(const Golden&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Golden& g) {
  return os << g.name << " ctas=" << g.ctas << " shared=" << g.shared_bytes
            << " load=" << g.load_bytes << " store=" << g.store_bytes
            << " score=" << g.score_bytes << " fp=" << g.fp_ops
            << " tensor=" << g.tensor_ops;
}

struct Case {
  std::string op;
  Precision precision;
  Form form;
  std::vector<Golden> launches;
};

/// seq 40, d_model 64, 4 heads, causal, 16×16 flash tiles; the cross
/// operators attend over a 56-row memory.
const std::vector<Case>& cases() {
  // clang-format off
  static const std::vector<Case> kCases = {
      {"modular", Precision::kFp32, Form::kDense,
       {
        {"q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"k_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"v_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"bmm_qk", 4, 32768, 20480, 25600, 25600, 204800, 0},
        {"scale", 1, 0, 25600, 25600, 51200, 6400, 0},
        {"mask", 1, 0, 25600, 25600, 51200, 3200, 0},
        {"softmax", 1, 0, 25600, 25600, 51200, 32000, 0},
        {"bmm_sv", 4, 32768, 35840, 10240, 25600, 204800, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"modular", Precision::kPureFp16, Form::kDense,
       {
        {"q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"k_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"v_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"bmm_qk", 4, 16384, 10240, 12800, 12800, 0, 204800},
        {"scale", 1, 0, 12800, 12800, 25600, 6400, 0},
        {"mask", 1, 0, 12800, 12800, 25600, 3200, 0},
        {"softmax", 1, 0, 12800, 12800, 25600, 32000, 0},
        {"bmm_sv", 4, 16384, 17920, 5120, 12800, 0, 204800},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"tensorrt", Precision::kFp32, Form::kDense,
       {
        {"qkv_linear[algo9_32x32]", 12, 8192, 159744, 30720, 0, 983040, 0},
        {"trt_qk_scale", 4, 32768, 20480, 25600, 25600, 211200, 0},
        {"trt_mask", 1, 0, 25600, 25600, 51200, 3200, 0},
        {"trt_softmax", 1, 0, 25600, 25600, 51200, 32000, 0},
        {"trt_sv", 4, 32768, 35840, 10240, 25600, 204800, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"tensorrt", Precision::kPureFp16, Form::kDense,
       {
        {"qkv_linear[algo4_128x256]", 1, 24576, 29696, 15360, 0, 0, 983040},
        {"trt_qk_scale", 4, 16384, 10240, 12800, 12800, 0, 211200},
        {"trt_mask", 1, 0, 12800, 12800, 25600, 3200, 0},
        {"trt_softmax", 1, 0, 12800, 12800, 25600, 32000, 0},
        {"trt_sv", 4, 16384, 17920, 5120, 12800, 0, 204800},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"fastertransformer", Precision::kFp32, Form::kDense,
       {
        {"qkv_linear[algo9_32x32]", 12, 8192, 159744, 30720, 0, 983040, 0},
        {"trt_qk_scale", 4, 32768, 20480, 25600, 25600, 211200, 0},
        {"ft_mask_softmax", 1, 0, 25600, 25600, 51200, 35200, 0},
        {"trt_sv", 4, 32768, 35840, 10240, 25600, 204800, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"fastertransformer", Precision::kPureFp16, Form::kDense,
       {
        {"qkv_linear[algo4_128x256]", 1, 24576, 29696, 15360, 0, 0, 983040},
        {"trt_qk_scale", 4, 16384, 10240, 12800, 12800, 0, 211200},
        {"ft_mask_softmax", 1, 0, 12800, 12800, 25600, 35200, 0},
        {"trt_sv", 4, 16384, 17920, 5120, 12800, 0, 204800},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"otf", Precision::kFp32, Form::kDense,
       {
        {"qkv_linear[algo9_32x32]", 12, 8192, 159744, 30720, 0, 983040, 0},
        {"otf_attention", 12, 5632, 71680, 10240, 0, 447360, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"otf", Precision::kFp32, Form::kPrecomputedVO,
       {
        {"q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"k_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"vo_linear[algo9_32x32]", 16, 8192, 212992, 40960, 0, 1310720, 0},
        {"otf_attention", 3, 5632, 163840, 10240, 0, 1061760, 0},
       }},
      {"otf", Precision::kFp32, Form::kCondensedV,
       {
        {"q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"k_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"v_linear.row_gemm[algo0_64x64]", 1, 16384, 20480, 6400, 0, 204800, 0},
        {"otf_attention", 12, 5632, 60160, 6400, 0, 370560, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"otf", Precision::kPureFp16, Form::kDense,
       {
        {"qkv_linear[algo4_128x256]", 1, 24576, 29696, 15360, 0, 0, 983040},
        {"otf_attention", 12, 2816, 35840, 5120, 0, 37760, 409600},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"otf", Precision::kPureFp16, Form::kPrecomputedVO,
       {
        {"q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"k_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"vo_linear[algo4_128x256]", 1, 24576, 37888, 20480, 0, 0, 1310720},
        {"otf_attention", 3, 2816, 81920, 5120, 0, 37760, 1024000},
       }},
      {"otf", Precision::kPureFp16, Form::kCondensedV,
       {
        {"q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"k_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"v_linear.row_gemm[algo0_64x64]", 1, 8192, 10240, 3200, 0, 0, 204800},
        {"otf_attention", 12, 2816, 30080, 3200, 0, 37760, 332800},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"partial_otf", Precision::kFp32, Form::kDense,
       {
        {"qkv_linear[algo9_32x32]", 12, 8192, 159744, 30720, 0, 983040, 0},
        {"partial_otf_qk", 4, 32768, 20480, 25600, 25600, 207360, 0},
        {"partial_otf_softmax_sv", 8, 7168, 46080, 10240, 25600, 240000, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"partial_otf", Precision::kFp32, Form::kPrecomputedVO,
       {
        {"q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"k_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"vo_linear[algo9_32x32]", 16, 8192, 212992, 40960, 0, 1310720, 0},
        {"partial_otf_qk", 4, 32768, 20480, 25600, 25600, 207360, 0},
        {"partial_otf_softmax_sv", 2, 7168, 107520, 10240, 25600, 854400, 0},
       }},
      {"partial_otf", Precision::kFp32, Form::kCondensedV,
       {
        {"q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"k_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"v_linear.row_gemm[algo0_64x64]", 1, 16384, 20480, 6400, 0, 204800, 0},
        {"partial_otf_qk", 4, 32768, 20480, 25600, 25600, 207360, 0},
        {"partial_otf_softmax_sv", 8, 7168, 38400, 10240, 25600, 163200, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"partial_otf", Precision::kPureFp16, Form::kDense,
       {
        {"qkv_linear[algo4_128x256]", 1, 24576, 29696, 15360, 0, 0, 983040},
        {"partial_otf_qk", 4, 16384, 10240, 12800, 12800, 2560, 204800},
        {"partial_otf_softmax_sv", 8, 3584, 23040, 5120, 12800, 35200, 204800},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"partial_otf", Precision::kPureFp16, Form::kPrecomputedVO,
       {
        {"q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"k_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"vo_linear[algo4_128x256]", 1, 24576, 37888, 20480, 0, 0, 1310720},
        {"partial_otf_qk", 4, 16384, 10240, 12800, 12800, 2560, 204800},
        {"partial_otf_softmax_sv", 2, 3584, 53760, 5120, 12800, 35200, 819200},
       }},
      {"partial_otf", Precision::kPureFp16, Form::kCondensedV,
       {
        {"q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"k_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"v_linear.row_gemm[algo0_64x64]", 1, 8192, 10240, 3200, 0, 0, 204800},
        {"partial_otf_qk", 4, 16384, 10240, 12800, 12800, 2560, 204800},
        {"partial_otf_softmax_sv", 8, 3584, 19200, 5120, 12800, 35200, 128000},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"flash", Precision::kFp32, Form::kDense,
       {
        {"qkv_linear[algo9_32x32]", 12, 8192, 159744, 30720, 0, 983040, 0},
        {"flash_attention", 12, 6144, 71680, 11520, 1280, 459200, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"flash", Precision::kFp32, Form::kPrecomputedVO,
       {
        {"q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"k_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"vo_linear[algo9_32x32]", 16, 8192, 212992, 40960, 0, 1310720, 0},
        {"flash_attention", 3, 6144, 163840, 11520, 1280, 1096640, 0},
       }},
      {"flash", Precision::kFp32, Form::kCondensedV,
       {
        {"q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"k_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"v_linear.row_gemm[algo0_64x64]", 1, 16384, 20480, 6400, 0, 204800, 0},
        {"flash_attention", 12, 6144, 60160, 7680, 1280, 379520, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"flash", Precision::kPureFp16, Form::kDense,
       {
        {"qkv_linear[algo4_128x256]", 1, 24576, 29696, 15360, 0, 0, 983040},
        {"flash_attention", 12, 3072, 35840, 5760, 640, 49600, 409600},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"flash", Precision::kPureFp16, Form::kPrecomputedVO,
       {
        {"q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"k_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"vo_linear[algo4_128x256]", 1, 24576, 37888, 20480, 0, 0, 1310720},
        {"flash_attention", 3, 3072, 81920, 5760, 640, 72640, 1024000},
       }},
      {"flash", Precision::kPureFp16, Form::kCondensedV,
       {
        {"q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"k_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"v_linear.row_gemm[algo0_64x64]", 1, 8192, 10240, 3200, 0, 0, 204800},
        {"flash_attention", 12, 3072, 30080, 3840, 640, 46720, 332800},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"otf_cross", Precision::kFp32, Form::kDense,
       {
        {"xattn_q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"xattn_k_linear.dense[algo9_32x32]", 4, 8192, 61440, 14336, 0, 458752, 0},
        {"xattn_v_linear.dense[algo9_32x32]", 4, 8192, 61440, 14336, 0, 458752, 0},
        {"otf_cross_attention", 12, 6656, 96256, 10240, 0, 620800, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"otf_cross", Precision::kFp32, Form::kPrecomputedVO,
       {
        {"xattn_q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"xattn_k_linear.dense[algo9_32x32]", 4, 8192, 61440, 14336, 0, 458752, 0},
        {"xattn_vo_linear[algo9_32x32]", 16, 8192, 245760, 57344, 0, 1835008, 0},
        {"otf_cross_attention", 3, 6656, 225280, 10240, 0, 1480960, 0},
       }},
      {"otf_cross", Precision::kFp32, Form::kCondensedV,
       {
        {"xattn_q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"xattn_k_linear.dense[algo9_32x32]", 4, 8192, 61440, 14336, 0, 458752, 0},
        {"xattn_v_linear.row_gemm[algo9_32x32]", 4, 8192, 49152, 8960, 0, 286720, 0},
        {"otf_cross_attention", 12, 6656, 80128, 6400, 0, 513280, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"otf_cross", Precision::kPureFp16, Form::kDense,
       {
        {"xattn_q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"xattn_k_linear.dense[algo0_64x64]", 1, 8192, 15360, 7168, 0, 0, 458752},
        {"xattn_v_linear.dense[algo0_64x64]", 1, 8192, 15360, 7168, 0, 0, 458752},
        {"otf_cross_attention", 12, 3328, 48128, 5120, 0, 47360, 573440},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"otf_cross", Precision::kPureFp16, Form::kPrecomputedVO,
       {
        {"xattn_q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"xattn_k_linear.dense[algo0_64x64]", 1, 8192, 15360, 7168, 0, 0, 458752},
        {"xattn_vo_linear[algo4_128x256]", 1, 24576, 39936, 28672, 0, 0, 1835008},
        {"otf_cross_attention", 3, 3328, 112640, 5120, 0, 47360, 1433600},
       }},
      {"otf_cross", Precision::kPureFp16, Form::kCondensedV,
       {
        {"xattn_q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"xattn_k_linear.dense[algo0_64x64]", 1, 8192, 15360, 7168, 0, 0, 458752},
        {"xattn_v_linear.row_gemm[algo0_64x64]", 1, 8192, 12288, 4480, 0, 0, 286720},
        {"otf_cross_attention", 12, 3328, 40064, 3200, 0, 47360, 465920},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"flash_cross", Precision::kFp32, Form::kDense,
       {
        {"xattn_q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"xattn_k_linear.dense[algo9_32x32]", 4, 8192, 61440, 14336, 0, 458752, 0},
        {"xattn_v_linear.dense[algo9_32x32]", 4, 8192, 61440, 14336, 0, 458752, 0},
        {"flash_cross_attention", 12, 6144, 96256, 11520, 1280, 641280, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"flash_cross", Precision::kFp32, Form::kPrecomputedVO,
       {
        {"xattn_q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"xattn_k_linear.dense[algo9_32x32]", 4, 8192, 61440, 14336, 0, 458752, 0},
        {"xattn_vo_linear[algo9_32x32]", 16, 8192, 245760, 57344, 0, 1835008, 0},
        {"flash_cross_attention", 3, 6144, 225280, 11520, 1280, 1532160, 0},
       }},
      {"flash_cross", Precision::kFp32, Form::kCondensedV,
       {
        {"xattn_q_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
        {"xattn_k_linear.dense[algo9_32x32]", 4, 8192, 61440, 14336, 0, 458752, 0},
        {"xattn_v_linear.row_gemm[algo9_32x32]", 4, 8192, 49152, 8960, 0, 286720, 0},
        {"flash_cross_attention", 12, 6144, 80128, 7680, 1280, 529920, 0},
        {"out_linear.dense[algo9_32x32]", 4, 8192, 53248, 10240, 0, 327680, 0},
       }},
      {"flash_cross", Precision::kPureFp16, Form::kDense,
       {
        {"xattn_q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"xattn_k_linear.dense[algo0_64x64]", 1, 8192, 15360, 7168, 0, 0, 458752},
        {"xattn_v_linear.dense[algo0_64x64]", 1, 8192, 15360, 7168, 0, 0, 458752},
        {"flash_cross_attention", 12, 3072, 48128, 5760, 640, 67840, 573440},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
      {"flash_cross", Precision::kPureFp16, Form::kPrecomputedVO,
       {
        {"xattn_q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"xattn_k_linear.dense[algo0_64x64]", 1, 8192, 15360, 7168, 0, 0, 458752},
        {"xattn_vo_linear[algo4_128x256]", 1, 24576, 39936, 28672, 0, 0, 1835008},
        {"flash_cross_attention", 3, 3072, 112640, 5760, 640, 98560, 1433600},
       }},
      {"flash_cross", Precision::kPureFp16, Form::kCondensedV,
       {
        {"xattn_q_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
        {"xattn_k_linear.dense[algo0_64x64]", 1, 8192, 15360, 7168, 0, 0, 458752},
        {"xattn_v_linear.row_gemm[algo0_64x64]", 1, 8192, 12288, 4480, 0, 0, 286720},
        {"flash_cross_attention", 12, 3072, 40064, 3840, 640, 64000, 465920},
        {"out_linear.dense[algo0_64x64]", 1, 8192, 13312, 5120, 0, 0, 327680},
       }},
  };
  // clang-format on
  return kCases;
}

AttentionWeights weights(const AttentionConfig& cfg, Form form) {
  AttentionWeights w = et::core::make_dense_weights(cfg, 11);
  const auto& wv = std::get<et::sparse::DenseWeight>(w.wv).matrix();
  const auto& wo = std::get<et::sparse::DenseWeight>(w.wo).matrix();
  if (form == Form::kPrecomputedVO) {
    w.vo = et::core::precompute_vo(wv, wo, cfg.num_heads);
  } else if (form == Form::kCondensedV) {
    // Attention-aware row pruning: the first 10 of each head's 16 rows.
    std::vector<std::uint32_t> kept;
    for (std::uint32_t r = 0; r < cfg.d_model; ++r) {
      if (r % 16 < 10) kept.push_back(r);
    }
    w.wv = et::sparse::RowPrunedWeight::from_kept_rows(wv, kept);
  }
  return w;
}

void run(et::core::ExecContext& ctx, const std::string& op,
         const AttentionWeights& w, const AttentionConfig& cfg) {
  const MatrixF x(cfg.seq_len, cfg.d_model);
  const MatrixF memory(56, cfg.d_model);
  if (op == "modular") {
    (void)et::core::modular_attention(ctx, x, w, cfg);
  } else if (op == "tensorrt") {
    (void)et::core::fused_attention(ctx, x, w, cfg);
  } else if (op == "fastertransformer") {
    (void)et::core::fused_attention(ctx, x, w, cfg, /*aggressive=*/true);
  } else if (op == "otf") {
    (void)et::core::otf_attention(ctx, x, w, cfg);
  } else if (op == "partial_otf") {
    (void)et::core::partial_otf_attention(ctx, x, w, cfg);
  } else if (op == "flash") {
    (void)et::core::flash_attention(ctx, x, w, cfg);
  } else if (op == "otf_cross") {
    (void)et::core::otf_cross_attention(ctx, x, memory, w, cfg);
  } else if (op == "flash_cross") {
    (void)et::core::flash_cross_attention(ctx, x, memory, w, cfg);
  } else {
    FAIL() << "unknown operator " << op;
  }
}

TEST(AttentionStatsGolden, EveryLaunchMatches) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.op + " " + std::string(to_string(c.precision)) +
                 " form " + std::to_string(static_cast<int>(c.form)));
    AttentionConfig cfg;
    cfg.seq_len = 40;
    cfg.d_model = 64;
    cfg.num_heads = 4;
    cfg.precision = c.precision;
    cfg.flash_block_rows = 16;
    cfg.flash_block_cols = 16;
    const AttentionWeights w = weights(cfg, c.form);

    et::gpusim::Device dev;
    dev.set_traffic_only(true);
    et::core::ExecContext ctx(dev);
    run(ctx, c.op, w, cfg);

    std::vector<Golden> got;
    for (const auto& k : dev.history()) {
      got.push_back({k.name, k.ctas, k.shared_bytes_per_cta,
                     k.global_load_bytes, k.global_store_bytes, k.score_bytes,
                     k.fp_ops, k.tensor_ops});
    }
    ASSERT_EQ(got.size(), c.launches.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], c.launches[i]) << "launch " << i;
    }
  }
}

TEST(AttentionStatsGolden, CoversEveryOperatorPolicyAndForm) {
  // 3 dense-only baselines + 5 E.T. operators × 3 weight forms, × 2 policies.
  EXPECT_EQ(cases().size(), (3 + 5 * 3) * 2u);
}

}  // namespace
