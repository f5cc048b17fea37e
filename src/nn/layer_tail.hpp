// The post-attention half of a layer (Fig. 1), written once: LN(a +
// residual), then the FFN with bias+GELU folded into ff1's GEMM epilogue
// and the bias into ff2's, then LN(ffn + ·). The E.T./FasterTransformer
// encoder, the batched encoder, the decoder (its LN2 -> FFN -> LN3) and
// the decode tick all run this block. The PyTorch/TensorRT encoder
// baselines keep their separate bias, activation and norm kernels: those
// launches are what Fig. 7 compares.
#pragma once

#include <array>
#include <span>
#include <string_view>

#include "core/exec_context.hpp"
#include "nn/encoder.hpp"

namespace et::nn {

struct QuantizedLayer;

namespace detail {

/// One layer's post-attention operands. `names` are the block's four
/// kernel names in launch order: residual+LN, ff1, ff2, residual+LN. With
/// `int8` set, ff1/ff2 run quant::int8_linear on its ff1/ff2 operands and
/// their launches are named `<name>_int8`.
struct LayerTail {
  const sparse::AnyWeight& w_ff1;
  const sparse::AnyWeight& w_ff2;
  std::span<const float> b_ff1, b_ff2;
  std::span<const float> ln1_gamma, ln1_beta, ln2_gamma, ln2_beta;
  std::array<std::string_view, 4> names;
  const QuantizedLayer* int8 = nullptr;
};

/// An encoder layer's tail operands.
[[nodiscard]] LayerTail encoder_tail(const EncoderWeights& w,
                                     std::array<std::string_view, 4> names,
                                     const QuantizedLayer* int8 = nullptr);

/// Run the block on the attention output `a` (row-wise, so stacked
/// sequences give the rows each would give alone) and return the layer
/// output.
[[nodiscard]] tensor::MatrixF layer_tail(core::ExecContext& ctx,
                                         tensor::MatrixF a,
                                         const tensor::MatrixF& residual,
                                         const LayerTail& t,
                                         numeric::Precision p);

}  // namespace detail
}  // namespace et::nn
