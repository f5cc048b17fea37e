#include "nn/serialize.hpp"

#include <array>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace et::nn {

namespace {

constexpr std::uint32_t kMagicV1 = 0x31575445;     // "ETW1" (retired)
constexpr std::uint32_t kMagicV2 = 0x32575445;     // "ETW2" (checksummed)
constexpr std::uint32_t kDecMagicV1 = 0x31445445;  // "ETD1" (retired)
constexpr std::uint32_t kDecMagicV2 = 0x32445445;  // "ETD2" (checksummed)
constexpr std::uint32_t kVersion2 = 2;

/// A tampered layer-count field must not become a giant reserve().
constexpr std::uint64_t kMaxLayers = 1ull << 16;

enum class Tag : std::uint32_t {
  kDense = 1,
  kRow = 2,
  kColumn = 3,
  kTile = 4,
  kIrregular = 5,
};

// ------------------------------------------------------------- CRC32 ----

/// CRC-32 (IEEE 802.3), table-driven; the same polynomial gzip and PNG
/// use, so a checkpoint's section CRCs can be cross-checked externally.
std::uint32_t crc32(const char* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xffu] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

// ------------------------------------------------------- raw helpers ----

void put_u32(std::ostream& os, std::uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_u64(std::ostream& os, std::uint64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

std::uint32_t get_u32(std::istream& is) {
  std::uint32_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("et::nn::load: truncated stream (u32)");
  return v;
}

std::uint64_t get_u64(std::istream& is) {
  std::uint64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) throw std::runtime_error("et::nn::load: truncated stream (u64)");
  return v;
}

void put_floats(std::ostream& os, const float* data, std::size_t n) {
  put_u64(os, n);
  os.write(reinterpret_cast<const char*>(data),
           static_cast<std::streamsize>(n * sizeof(float)));
}

std::vector<float> get_floats(std::istream& is) {
  const std::uint64_t n = get_u64(is);
  std::vector<float> out(n);
  is.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(n * sizeof(float)));
  if (!is) throw std::runtime_error("et::nn::load: truncated float block");
  return out;
}

void put_u32s(std::ostream& os, const std::vector<std::uint32_t>& v) {
  put_u64(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(std::uint32_t)));
}

std::vector<std::uint32_t> get_u32s(std::istream& is) {
  const std::uint64_t n = get_u64(is);
  std::vector<std::uint32_t> out(n);
  is.read(reinterpret_cast<char*>(out.data()),
          static_cast<std::streamsize>(n * sizeof(std::uint32_t)));
  if (!is) throw std::runtime_error("et::nn::load: truncated index block");
  return out;
}

void put_matrix(std::ostream& os, const tensor::MatrixF& m) {
  put_u64(os, m.rows());
  put_u64(os, m.cols());
  put_floats(os, m.data(), m.size());
}

tensor::MatrixF get_matrix(std::istream& is) {
  const std::uint64_t rows = get_u64(is);
  const std::uint64_t cols = get_u64(is);
  const auto flat = get_floats(is);
  if (flat.size() != rows * cols) {
    throw std::runtime_error("et::nn::load: matrix size mismatch");
  }
  tensor::MatrixF m(rows, cols);
  std::copy(flat.begin(), flat.end(), m.data());
  return m;
}

// ---------------------------------------------------------- sections ----
// A section is one named, independently-checksummed unit of the stream:
//   u32 name length, name bytes, u64 payload size, u32 CRC32, payload.
// Every load-side failure mode — truncation, a flipped byte anywhere in
// header or payload, a wrong layer count — surfaces as an exception that
// names the section, so a corrupted checkpoint points at *what* is bad.

void write_section(std::ostream& os, const std::string& name,
                   const std::string& payload) {
  put_u32(os, static_cast<std::uint32_t>(name.size()));
  os.write(name.data(), static_cast<std::streamsize>(name.size()));
  put_u64(os, payload.size());
  put_u32(os, crc32(payload.data(), payload.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

[[noreturn]] void section_error(const std::string& section,
                                const std::string& what) {
  throw std::runtime_error("et::nn::load: checkpoint section '" + section +
                           "': " + what);
}

std::string read_section(std::istream& is, const std::string& expected) {
  std::uint32_t name_len = 0;
  is.read(reinterpret_cast<char*>(&name_len), sizeof name_len);
  if (!is) section_error(expected, "truncated stream (section header)");
  // A corrupted length would otherwise turn into a huge allocation.
  if (name_len != expected.size()) {
    section_error(expected, "unexpected section name (corrupted header)");
  }
  std::string name(name_len, '\0');
  is.read(name.data(), name_len);
  if (!is) section_error(expected, "truncated stream (section name)");
  if (name != expected) {
    section_error(expected, "found section '" + name + "' instead");
  }
  std::uint64_t size = 0;
  is.read(reinterpret_cast<char*>(&size), sizeof size);
  std::uint32_t stored_crc = 0;
  is.read(reinterpret_cast<char*>(&stored_crc), sizeof stored_crc);
  if (!is) section_error(expected, "truncated stream (section header)");
  // A flipped byte in the size field must not become a huge allocation.
  constexpr std::uint64_t kMaxSectionBytes = 1ull << 32;
  if (size > kMaxSectionBytes) {
    section_error(expected, "implausible section size (corrupted header)");
  }
  std::string payload(size, '\0');
  is.read(payload.data(), static_cast<std::streamsize>(size));
  if (!is || static_cast<std::uint64_t>(is.gcount()) != size) {
    section_error(expected, "truncated stream (payload)");
  }
  if (crc32(payload.data(), payload.size()) != stored_crc) {
    section_error(expected, "CRC32 mismatch (checkpoint corrupted)");
  }
  return payload;
}

/// Serialize through `fill` into a buffered payload, then emit it as a
/// checksummed section.
template <typename Fn>
void put_section(std::ostream& os, const std::string& name, Fn&& fill) {
  std::ostringstream payload;
  fill(payload);
  write_section(os, name, payload.str());
}

/// Read a section and parse its payload through `parse`. A short payload
/// (which only a corrupted-but-CRC-colliding stream could produce) still
/// fails inside `parse` with the plain truncation errors.
template <typename Fn>
auto get_section(std::istream& is, const std::string& name, Fn&& parse) {
  std::istringstream payload(read_section(is, name));
  return parse(payload);
}

// ----------------------------------------------------- weight formats ----

void put_weight(std::ostream& os, const sparse::AnyWeight& w) {
  // Weights serialize through their masked-dense reconstruction plus the
  // structural metadata needed to rebuild the exact format: simple,
  // version-stable, and exact (the formats are lossless views).
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, sparse::DenseWeight>) {
          put_u32(os, static_cast<std::uint32_t>(Tag::kDense));
          put_matrix(os, v.matrix());
        } else if constexpr (std::is_same_v<T, sparse::RowPrunedWeight>) {
          put_u32(os, static_cast<std::uint32_t>(Tag::kRow));
          put_u64(os, v.original_rows());
          put_u64(os, v.original_cols());
          put_u32s(os, v.kept_rows());
          put_matrix(os, v.condensed());
        } else if constexpr (std::is_same_v<T, sparse::ColPrunedWeight>) {
          put_u32(os, static_cast<std::uint32_t>(Tag::kColumn));
          put_u64(os, v.original_rows());
          put_u64(os, v.original_cols());
          put_u32s(os, v.kept_cols());
          put_matrix(os, v.condensed());
        } else if constexpr (std::is_same_v<T, sparse::TilePrunedWeight>) {
          put_u32(os, static_cast<std::uint32_t>(Tag::kTile));
          // Tile structure is recoverable from the dense zeros pattern.
          put_matrix(os, v.to_dense());
        } else {
          put_u32(os, static_cast<std::uint32_t>(Tag::kIrregular));
          put_matrix(os, v.to_dense());
        }
      },
      w);
}

sparse::Mask nonzero_mask(const tensor::MatrixF& m) {
  sparse::Mask mask(m.rows(), m.cols(), 0);
  for (std::size_t i = 0; i < m.size(); ++i) {
    mask.flat()[i] = m.flat()[i] != 0.0f ? 1 : 0;
  }
  return mask;
}

sparse::AnyWeight get_weight(std::istream& is) {
  const auto tag = static_cast<Tag>(get_u32(is));
  switch (tag) {
    case Tag::kDense:
      return sparse::DenseWeight(get_matrix(is));
    case Tag::kRow: {
      const std::uint64_t rows = get_u64(is);
      const std::uint64_t cols = get_u64(is);
      auto kept = get_u32s(is);
      const auto condensed = get_matrix(is);
      if (condensed.rows() != kept.size() || condensed.cols() != cols) {
        throw std::runtime_error("et::nn::load: row-pruned shape mismatch");
      }
      // Rebuild through the dense reconstruction for validation.
      tensor::MatrixF dense(rows, cols);
      for (std::size_t i = 0; i < kept.size(); ++i) {
        for (std::size_t c = 0; c < cols; ++c) {
          dense(kept[i], c) = condensed(i, c);
        }
      }
      return sparse::RowPrunedWeight::from_kept_rows(dense, std::move(kept));
    }
    case Tag::kColumn: {
      const std::uint64_t rows = get_u64(is);
      const std::uint64_t cols = get_u64(is);
      auto kept = get_u32s(is);
      const auto condensed = get_matrix(is);
      if (condensed.cols() != kept.size() || condensed.rows() != rows) {
        throw std::runtime_error(
            "et::nn::load: column-pruned shape mismatch");
      }
      tensor::MatrixF dense(rows, cols);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t i = 0; i < kept.size(); ++i) {
          dense(r, kept[i]) = condensed(r, i);
        }
      }
      return sparse::ColPrunedWeight::from_kept_cols(dense, std::move(kept));
    }
    case Tag::kTile: {
      const auto dense = get_matrix(is);
      return sparse::TilePrunedWeight::from_masked(dense,
                                                   nonzero_mask(dense));
    }
    case Tag::kIrregular: {
      const auto dense = get_matrix(is);
      return sparse::IrregularWeight::from_masked(dense,
                                                  nonzero_mask(dense));
    }
  }
  throw std::runtime_error("et::nn::load: unknown weight tag");
}

void put_vector(std::ostream& os, const std::vector<float>& v) {
  put_floats(os, v.data(), v.size());
}

// ----------------------------------------------- section payload parts ----

void put_attention(std::ostream& os, const core::AttentionWeights& a) {
  put_weight(os, a.wq);
  put_weight(os, a.wk);
  put_weight(os, a.wv);
  put_weight(os, a.wo);
  // Pre-computed W_VO (may be empty).
  put_u64(os, a.vo.num_heads);
  put_u32s(os, a.vo.kept_cols);
  put_matrix(os, a.vo.weight);
}

core::AttentionWeights get_attention(std::istream& is) {
  core::AttentionWeights a;
  a.wq = get_weight(is);
  a.wk = get_weight(is);
  a.wv = get_weight(is);
  a.wo = get_weight(is);
  a.vo.num_heads = get_u64(is);
  a.vo.kept_cols = get_u32s(is);
  a.vo.weight = get_matrix(is);
  return a;
}

void save_encoder_sections(std::ostream& os, const EncoderWeights& w,
                           const std::string& prefix) {
  put_section(os, prefix + "attention",
              [&](std::ostream& p) { put_attention(p, w.attn); });
  put_section(os, prefix + "ffn", [&](std::ostream& p) {
    put_weight(p, w.w_ff1);
    put_weight(p, w.w_ff2);
    put_vector(p, w.b_ff1);
    put_vector(p, w.b_ff2);
  });
  put_section(os, prefix + "layernorm", [&](std::ostream& p) {
    put_vector(p, w.ln1_gamma);
    put_vector(p, w.ln1_beta);
    put_vector(p, w.ln2_gamma);
    put_vector(p, w.ln2_beta);
  });
}

EncoderWeights load_encoder_sections(std::istream& is,
                                     const std::string& prefix) {
  EncoderWeights w;
  w.attn = get_section(is, prefix + "attention",
                       [](std::istream& p) { return get_attention(p); });
  get_section(is, prefix + "ffn", [&](std::istream& p) {
    w.w_ff1 = get_weight(p);
    w.w_ff2 = get_weight(p);
    w.b_ff1 = get_floats(p);
    w.b_ff2 = get_floats(p);
    return 0;
  });
  get_section(is, prefix + "layernorm", [&](std::istream& p) {
    w.ln1_gamma = get_floats(p);
    w.ln1_beta = get_floats(p);
    w.ln2_gamma = get_floats(p);
    w.ln2_beta = get_floats(p);
    return 0;
  });
  return w;
}

std::string layer_prefix(std::uint64_t i) {
  return "layer" + std::to_string(i) + "/";
}

/// Reads and checks the stack header (magic + version) shared by the
/// encoder (ETW2) and decoder (ETD2) formats. The retired unchecksummed
/// v1 magic gets its own error: checkpoints are untrusted input, and
/// without per-section CRCs a bit flip would load as different weights.
void check_header(std::istream& is, std::uint32_t magic_v2,
                  std::uint32_t magic_v1, const char* kind) {
  const std::uint32_t magic = get_u32(is);
  if (magic == magic_v1) {
    throw std::runtime_error(
        std::string("et::nn::load: legacy unchecksummed ") + kind +
        "1 checkpoint; only the checksummed v2 formats (ETW2 / ETD2) load");
  }
  if (magic != magic_v2) {
    throw std::runtime_error(std::string("et::nn::load: bad magic (not an ") +
                             kind + " file)");
  }
  const std::uint32_t version = get_u32(is);
  if (version != kVersion2) {
    throw std::runtime_error("et::nn::load: unsupported version " +
                             std::to_string(version));
  }
}

}  // namespace

void save_encoder_weights(std::ostream& os, const EncoderWeights& w) {
  save_encoder_sections(os, w, "");
}

EncoderWeights load_encoder_weights(std::istream& is) {
  return load_encoder_sections(is, "");
}

void save_decoder_stack(std::ostream& os,
                        const std::vector<DecoderWeights>& layers) {
  put_u32(os, kDecMagicV2);
  put_u32(os, kVersion2);
  put_u64(os, layers.size());
  for (std::uint64_t i = 0; i < layers.size(); ++i) {
    const auto& w = layers[i];
    const std::string prefix = layer_prefix(i);
    put_section(os, prefix + "self_attention",
                [&](std::ostream& p) { put_attention(p, w.self_attn); });
    put_section(os, prefix + "cross_attention",
                [&](std::ostream& p) { put_attention(p, w.cross_attn); });
    put_section(os, prefix + "ffn", [&](std::ostream& p) {
      put_weight(p, w.w_ff1);
      put_weight(p, w.w_ff2);
      put_vector(p, w.b_ff1);
      put_vector(p, w.b_ff2);
    });
    put_section(os, prefix + "layernorm", [&](std::ostream& p) {
      put_vector(p, w.ln1_gamma);
      put_vector(p, w.ln1_beta);
      put_vector(p, w.ln2_gamma);
      put_vector(p, w.ln2_beta);
      put_vector(p, w.ln3_gamma);
      put_vector(p, w.ln3_beta);
    });
  }
}

std::vector<DecoderWeights> load_decoder_stack(std::istream& is) {
  check_header(is, kDecMagicV2, kDecMagicV1, "ETD");
  const std::uint64_t count = get_u64(is);
  if (count > kMaxLayers) {
    throw std::runtime_error("et::nn::load: implausible layer count " +
                             std::to_string(count));
  }
  std::vector<DecoderWeights> layers;
  layers.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    DecoderWeights w;
    const std::string prefix = layer_prefix(i);
    w.self_attn = get_section(is, prefix + "self_attention",
                              [](std::istream& p) {
                                return get_attention(p);
                              });
    w.cross_attn = get_section(is, prefix + "cross_attention",
                               [](std::istream& p) {
                                 return get_attention(p);
                               });
    get_section(is, prefix + "ffn", [&](std::istream& p) {
      w.w_ff1 = get_weight(p);
      w.w_ff2 = get_weight(p);
      w.b_ff1 = get_floats(p);
      w.b_ff2 = get_floats(p);
      return 0;
    });
    get_section(is, prefix + "layernorm", [&](std::istream& p) {
      w.ln1_gamma = get_floats(p);
      w.ln1_beta = get_floats(p);
      w.ln2_gamma = get_floats(p);
      w.ln2_beta = get_floats(p);
      w.ln3_gamma = get_floats(p);
      w.ln3_beta = get_floats(p);
      return 0;
    });
    layers.push_back(std::move(w));
  }
  return layers;
}

void save_encoder_stack(std::ostream& os,
                        const std::vector<EncoderWeights>& layers) {
  put_u32(os, kMagicV2);
  put_u32(os, kVersion2);
  put_u64(os, layers.size());
  for (std::uint64_t i = 0; i < layers.size(); ++i) {
    save_encoder_sections(os, layers[i], layer_prefix(i));
  }
}

std::vector<EncoderWeights> load_encoder_stack(std::istream& is) {
  check_header(is, kMagicV2, kMagicV1, "ETW");
  const std::uint64_t count = get_u64(is);
  if (count > kMaxLayers) {
    throw std::runtime_error("et::nn::load: implausible layer count " +
                             std::to_string(count));
  }
  std::vector<EncoderWeights> layers;
  layers.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    layers.push_back(load_encoder_sections(is, layer_prefix(i)));
  }
  return layers;
}

void save_encoder_stack(const std::string& path,
                        const std::vector<EncoderWeights>& layers) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for writing: " + path);
  save_encoder_stack(f, layers);
  if (!f) throw std::runtime_error("write failed: " + path);
}

std::vector<EncoderWeights> load_encoder_stack(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot open for reading: " + path);
  return load_encoder_stack(f);
}

}  // namespace et::nn
