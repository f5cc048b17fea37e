// Binary serialization of deployed encoder weights — the artifact a
// production user ships after the prune/retrain pipeline. All five weight
// formats round-trip, so a model pruned on one machine loads for
// inference elsewhere without re-deriving masks.
//
// Format (v2): little-endian, "ETW2" magic + version, then named sections
// ("layer0/attention", "layer0/ffn", ...), each carrying its payload size
// and a CRC32 of the payload. A truncated or bit-flipped checkpoint is
// rejected with an error naming the bad section instead of loading
// garbage weights. The retired unchecksummed "ETW1"/"ETD1" formats are
// rejected by magic with an error naming ETW2. Not designed for cross-endian
// portability (like most ML checkpoint formats).
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/decoder.hpp"
#include "nn/encoder.hpp"

namespace et::nn {

/// Serialize one encoder layer's weights as checksummed sections
/// ("attention", "ffn", "layernorm") without a file header.
void save_encoder_weights(std::ostream& os, const EncoderWeights& w);
[[nodiscard]] EncoderWeights load_encoder_weights(std::istream& is);

/// Serialize a whole stack (magic + version + layer count + sections).
void save_encoder_stack(std::ostream& os,
                        const std::vector<EncoderWeights>& layers);
[[nodiscard]] std::vector<EncoderWeights> load_encoder_stack(std::istream& is);

/// Decoder stacks (self-attn + cross-attn + MLP per layer).
void save_decoder_stack(std::ostream& os,
                        const std::vector<DecoderWeights>& layers);
[[nodiscard]] std::vector<DecoderWeights> load_decoder_stack(std::istream& is);

/// File-path convenience wrappers; throw std::runtime_error on IO failure.
void save_encoder_stack(const std::string& path,
                        const std::vector<EncoderWeights>& layers);
[[nodiscard]] std::vector<EncoderWeights> load_encoder_stack(
    const std::string& path);

}  // namespace et::nn
