#include "train/layers.hpp"

#include <cassert>
#include <cmath>

#include "kernels/elementwise.hpp"
#include "nn/positional.hpp"
#include "tensor/random.hpp"

namespace et::train {

// ------------------------------------------------------------- Linear ----

Linear::Linear(std::size_t out_features, std::size_t in_features,
               std::uint64_t seed)
    : weight(out_features, in_features) {
  tensor::fill_xavier(weight.w, seed);
  bias.assign(out_features, 0.0f);
  bias_g.assign(out_features, 0.0f);
  bias_m.assign(out_features, 0.0f);
  bias_v.assign(out_features, 0.0f);
}

tensor::MatrixF Linear::forward(const tensor::MatrixF& x) {
  assert(x.cols() == weight.w.cols());
  x_ = x;
  tensor::MatrixF y(x.rows(), weight.w.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < weight.w.rows(); ++j) {
      float acc = bias[j];
      for (std::size_t k = 0; k < x.cols(); ++k) {
        acc += x(i, k) * weight.w(j, k);
      }
      y(i, j) = acc;
    }
  }
  return y;
}

tensor::MatrixF Linear::backward(const tensor::MatrixF& dy) {
  assert(dy.rows() == x_.rows() && dy.cols() == weight.w.rows());
  // dW += dyᵀ·x ; db += Σ_rows dy ; dx = dy·W
  for (std::size_t j = 0; j < weight.w.rows(); ++j) {
    for (std::size_t i = 0; i < dy.rows(); ++i) {
      bias_g[j] += dy(i, j);
      const float d = dy(i, j);
      for (std::size_t k = 0; k < x_.cols(); ++k) {
        weight.g(j, k) += d * x_(i, k);
      }
    }
  }
  tensor::MatrixF dx(x_.rows(), x_.cols());
  for (std::size_t i = 0; i < dx.rows(); ++i) {
    for (std::size_t k = 0; k < dx.cols(); ++k) {
      float acc = 0.0f;
      for (std::size_t j = 0; j < weight.w.rows(); ++j) {
        acc += dy(i, j) * weight.w(j, k);
      }
      dx(i, k) = acc;
    }
  }
  return dx;
}

void Linear::zero_grad() {
  weight.zero_grad();
  std::fill(bias_g.begin(), bias_g.end(), 0.0f);
}

void Linear::bias_step(float lr, float beta1, float beta2, float eps, long t) {
  const float bc1 = 1.0f - std::pow(beta1, static_cast<float>(t));
  const float bc2 = 1.0f - std::pow(beta2, static_cast<float>(t));
  for (std::size_t i = 0; i < bias.size(); ++i) {
    bias_m[i] = beta1 * bias_m[i] + (1.0f - beta1) * bias_g[i];
    bias_v[i] = beta2 * bias_v[i] + (1.0f - beta2) * bias_g[i] * bias_g[i];
    bias[i] -= lr * (bias_m[i] / bc1) / (std::sqrt(bias_v[i] / bc2) + eps);
  }
}

// ---------------------------------------------------------- LayerNorm ----

LayerNorm::LayerNorm(std::size_t dim) {
  gamma.assign(dim, 1.0f);
  beta.assign(dim, 0.0f);
  gamma_g.assign(dim, 0.0f);
  beta_g.assign(dim, 0.0f);
}

tensor::MatrixF LayerNorm::forward(const tensor::MatrixF& x) {
  assert(x.cols() == gamma.size());
  xhat_ = tensor::MatrixF(x.rows(), x.cols());
  inv_std_.assign(x.rows(), 0.0f);
  tensor::MatrixF y(x.rows(), x.cols());
  const auto n = static_cast<float>(x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    float mean = 0.0f;
    for (std::size_t c = 0; c < x.cols(); ++c) mean += x(r, c);
    mean /= n;
    float var = 0.0f;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      const float d = x(r, c) - mean;
      var += d * d;
    }
    var /= n;
    const float inv = 1.0f / std::sqrt(var + eps_);
    inv_std_[r] = inv;
    for (std::size_t c = 0; c < x.cols(); ++c) {
      xhat_(r, c) = (x(r, c) - mean) * inv;
      y(r, c) = xhat_(r, c) * gamma[c] + beta[c];
    }
  }
  return y;
}

tensor::MatrixF LayerNorm::backward(const tensor::MatrixF& dy) {
  const auto n = static_cast<float>(dy.cols());
  tensor::MatrixF dx(dy.rows(), dy.cols());
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    float sum_dxhat = 0.0f;
    float sum_dxhat_xhat = 0.0f;
    for (std::size_t c = 0; c < dy.cols(); ++c) {
      gamma_g[c] += dy(r, c) * xhat_(r, c);
      beta_g[c] += dy(r, c);
      const float dxhat = dy(r, c) * gamma[c];
      sum_dxhat += dxhat;
      sum_dxhat_xhat += dxhat * xhat_(r, c);
    }
    for (std::size_t c = 0; c < dy.cols(); ++c) {
      const float dxhat = dy(r, c) * gamma[c];
      dx(r, c) = inv_std_[r] / n *
                 (n * dxhat - sum_dxhat - xhat_(r, c) * sum_dxhat_xhat);
    }
  }
  return dx;
}

void LayerNorm::zero_grad() {
  std::fill(gamma_g.begin(), gamma_g.end(), 0.0f);
  std::fill(beta_g.begin(), beta_g.end(), 0.0f);
}

void LayerNorm::step(float lr) {
  for (std::size_t i = 0; i < gamma.size(); ++i) {
    gamma[i] -= lr * gamma_g[i];
    beta[i] -= lr * beta_g[i];
  }
}

// --------------------------------------------------------------- Gelu ----

namespace {
constexpr float kSqrt2OverPi = 0.7978845608028654f;
}

tensor::MatrixF Gelu::forward(const tensor::MatrixF& x) {
  x_ = x;
  tensor::MatrixF y(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    y.flat()[i] = kernels::gelu_tanh(x.flat()[i]);
  }
  return y;
}

tensor::MatrixF Gelu::backward(const tensor::MatrixF& dy) {
  tensor::MatrixF dx(dy.rows(), dy.cols());
  for (std::size_t i = 0; i < dy.size(); ++i) {
    const float v = x_.flat()[i];
    const float inner = kSqrt2OverPi * (v + 0.044715f * v * v * v);
    const float t = std::tanh(inner);
    const float dinner = kSqrt2OverPi * (1.0f + 3.0f * 0.044715f * v * v);
    const float dgelu = 0.5f * (1.0f + t) + 0.5f * v * (1.0f - t * t) * dinner;
    dx.flat()[i] = dy.flat()[i] * dgelu;
  }
  return dx;
}

// ---------------------------------------------------------- Embedding ----

Embedding::Embedding(std::size_t vocab, std::size_t dim, std::uint64_t seed)
    : table(vocab, dim) {
  tensor::fill_embedding(table.w, seed);
}

tensor::MatrixF Embedding::forward(std::span<const std::int32_t> tokens,
                                   bool add_positional) {
  tokens_.assign(tokens.begin(), tokens.end());
  tensor::MatrixF x(tokens.size(), table.w.cols());
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const auto id = static_cast<std::size_t>(tokens[i]);
    assert(id < table.w.rows());
    for (std::size_t c = 0; c < table.w.cols(); ++c) {
      x(i, c) = table.w(id, c);
    }
  }
  if (add_positional) nn::add_positional_encoding(x);
  return x;
}

void Embedding::backward(const tensor::MatrixF& dy) {
  assert(dy.rows() == tokens_.size());
  for (std::size_t i = 0; i < tokens_.size(); ++i) {
    const auto id = static_cast<std::size_t>(tokens_[i]);
    for (std::size_t c = 0; c < dy.cols(); ++c) {
      table.g(id, c) += dy(i, c);
    }
  }
}

}  // namespace et::train
